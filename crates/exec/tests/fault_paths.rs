//! Engine faults on the one execution path: an injector attached to a run
//! is consulted from inside the charging scopes, so the same faults fire
//! at the same `(node, total_pages)` / `(node, k)` whether the root is
//! driven one row or 1024 rows at a time — and a fault never leaves clock
//! time or counters behind in an unflushed scope.

mod common;

use common::{make_db, masked, opts, plan_of, spec_strategy};
use lqs_exec::{
    build_operator, execute, execute_hooked, ExecContext, ExecHooks, ExecOptions, FaultInjector,
    GetNextFault, IoVerdict, NodeCounters, QueryFault, QueryRun, RowBatch,
};
use lqs_plan::{CostModel, NodeId, PhysicalPlan, PlanBuilder};
use lqs_storage::Database;
use proptest::prelude::*;
use std::sync::Mutex;

/// What a [`Scripted`] injector does. Every decision keys off the hook's
/// `(node, cumulative counter)` arguments alone — never the clock, never
/// which node got there first — so it is the same decision at any batch
/// size.
#[derive(Debug, Clone, Copy)]
enum Script {
    /// Every I/O charge whose cumulative page count is a multiple of
    /// `every` costs `extra_ns` more.
    SlowPages { every: u64, extra_ns: u64 },
    /// `node`'s first I/O charge at or past `at_pages` fails.
    IoError {
        node: NodeId,
        at_pages: u64,
        transient: bool,
    },
    /// Every `every`-th output row of every node stalls for `ns`.
    Stall { every: u64, ns: u64 },
    /// `node` panics on producing its `k`-th row.
    Panic { node: NodeId, k: u64 },
}

/// One hook visit: `(io?, node, cumulative pages or k)`.
type Visit = (bool, usize, u64);

struct Scripted {
    script: Script,
    /// The hook visits on which the script fired a fault, in order.
    fired: Mutex<Vec<Visit>>,
}

impl Scripted {
    fn new(script: Script) -> Self {
        Scripted {
            script,
            fired: Mutex::new(Vec::new()),
        }
    }

    /// The faults fired, order-independent (node interleaving differs with
    /// the batch size; which faults fire must not).
    fn fired_sorted(&self) -> Vec<Visit> {
        let mut fired = self.fired.lock().unwrap().clone();
        fired.sort_unstable();
        fired
    }
}

impl FaultInjector for Scripted {
    fn on_io(&self, node: NodeId, total_pages: u64, _now_ns: u64) -> IoVerdict {
        let verdict = match self.script {
            Script::SlowPages { every, extra_ns } if total_pages.is_multiple_of(every) => {
                IoVerdict::Slow { extra_ns }
            }
            Script::IoError {
                node: target,
                at_pages,
                transient,
            } if node == target && total_pages >= at_pages => IoVerdict::Error {
                message: "scripted I/O error".into(),
                transient,
            },
            _ => return IoVerdict::Ok,
        };
        self.fired.lock().unwrap().push((true, node.0, total_pages));
        verdict
    }

    fn on_get_next(&self, node: NodeId, k: u64, _now_ns: u64) -> Option<GetNextFault> {
        let fault = match self.script {
            Script::Stall { every, ns } if k.is_multiple_of(every) => GetNextFault::Stall { ns },
            Script::Panic {
                node: target,
                k: at,
            } if node == target && k == at => GetNextFault::Panic {
                message: "scripted operator panic".into(),
                transient: false,
            },
            _ => return None,
        };
        self.fired.lock().unwrap().push((false, node.0, k));
        Some(fault)
    }
}

/// A run under `script` that is expected to finish.
fn run_with(
    db: &Database,
    plan: &PhysicalPlan,
    batch_size: usize,
    script: Script,
) -> (QueryRun, Scripted) {
    let injector = Scripted::new(script);
    let run = execute_hooked(
        db,
        plan,
        &opts(batch_size),
        ExecHooks {
            fault: Some(&injector),
            ..ExecHooks::default()
        },
    )
    .expect("no cancel/deadline hooks");
    (run, injector)
}

/// What is left of a run a hard fault stopped: the payload plus everything
/// the context had recorded when it unwound.
struct Failed {
    fault: QueryFault,
    counters: Vec<NodeCounters>,
    elapsed: Vec<u64>,
    end_ns: u64,
}

/// Drive the operator tree by hand (the executor re-raises a `QueryFault`
/// and drops the context with it) and return the wreckage, or `None` when
/// the run finished.
fn run_to_failure(
    db: &Database,
    plan: &PhysicalPlan,
    batch_size: usize,
    injector: &Scripted,
) -> Option<Failed> {
    let ctx =
        ExecContext::new(db, plan.len(), 0, 50_000, CostModel::default()).with_fault(injector);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut root = build_operator(plan, db, plan.root());
        root.open(&ctx);
        let mut batch = RowBatch::with_capacity(batch_size);
        while root.next_batch(&ctx, &mut batch, batch_size) {
            batch.clear();
        }
        root.close(&ctx);
    }));
    let fault = *outcome
        .err()?
        .downcast::<QueryFault>()
        .expect("the only panic a scripted run raises is its QueryFault");
    let (_, counters, elapsed, end_ns) = ctx.into_results();
    Some(Failed {
        fault,
        counters,
        elapsed,
        end_ns,
    })
}

/// Soft faults (slow pages, stalls) at batch size 1 and 1024: the same
/// faults fire, the run ends on the same clock with the same counters and
/// the same per-node self-time, and that self-time sums to the clock.
fn check_soft(plan: &PhysicalPlan, db: &Database, script: Script) {
    let (one, one_inj) = run_with(db, plan, 1, script);
    let (big, big_inj) = run_with(db, plan, 1024, script);
    let tree = plan.display_tree();
    assert_eq!(
        one_inj.fired_sorted(),
        big_inj.fired_sorted(),
        "{script:?} fired differently\nplan:\n{tree}"
    );
    assert_eq!(
        one.duration_ns, big.duration_ns,
        "{script:?}\nplan:\n{tree}"
    );
    assert_eq!(one.rows_returned, big.rows_returned);
    assert_eq!(masked(&one.final_counters), masked(&big.final_counters));
    assert_eq!(one.node_elapsed_ns, big.node_elapsed_ns);
    assert_eq!(big.node_elapsed_ns.iter().sum::<u64>(), big.duration_ns);

    // The faults cost time and nothing else: against a clean run only the
    // clock (and what is stamped from it) moves.
    let clean = execute(db, plan, &opts(1024));
    let extra: u64 = match script {
        Script::SlowPages { extra_ns, .. } => extra_ns,
        Script::Stall { ns, .. } => ns,
        _ => unreachable!("check_soft takes soft faults"),
    } * big_inj.fired_sorted().len() as u64;
    assert_eq!(big.duration_ns, clean.duration_ns + extra);
    for (faulted, clean) in big.final_counters.iter().zip(&clean.final_counters) {
        assert_eq!(faulted.rows_output, clean.rows_output);
        assert_eq!(faulted.rows_input, clean.rows_input);
        assert_eq!(faulted.logical_reads, clean.logical_reads);
        assert_eq!(faulted.cpu_ns, clean.cpu_ns);
    }
}

/// A hard fault at batch size 1 and 1024: it fires on the same hook visit,
/// stamped with the clock the context ended on, with every nanosecond up
/// to it — the failed read included — credited to a node.
fn check_hard(plan: &PhysicalPlan, db: &Database, script: Script) {
    let mut fired = Vec::new();
    for batch_size in [1, 1024] {
        let injector = Scripted::new(script);
        let failed = run_to_failure(db, plan, batch_size, &injector).unwrap_or_else(|| {
            panic!(
                "{script:?} never fired at batch size {batch_size}\nplan:\n{}",
                plan.display_tree()
            )
        });
        assert_eq!(failed.fault.at_ns, failed.end_ns);
        assert_eq!(failed.elapsed.iter().sum::<u64>(), failed.end_ns);
        let c = &failed.counters[failed.fault.node.0];
        match script {
            Script::IoError {
                node,
                at_pages,
                transient,
            } => {
                assert_eq!(failed.fault.node, node);
                assert_eq!(failed.fault.transient, transient);
                // The failed read is in the counters the run left behind.
                assert!(c.logical_reads >= at_pages);
                assert_eq!(injector.fired_sorted(), [(true, node.0, c.logical_reads)]);
            }
            Script::Panic { node, k } => {
                assert_eq!(failed.fault.node, node);
                // The faulting row is counted, and nothing after it.
                assert_eq!(c.rows_output, k);
            }
            _ => unreachable!("check_hard takes hard faults"),
        }
        fired.push(injector.fired_sorted());
    }
    assert_eq!(
        fired[0],
        fired[1],
        "{script:?} fired differently\nplan:\n{}",
        plan.display_tree()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn soft_faults_do_not_depend_on_batch_size(
        spec in spec_strategy(),
        every in 1u64..40,
        ns in 1u64..200_000,
    ) {
        let ctx = make_db(1200, 2);
        let plan = plan_of(&ctx, &spec);
        check_soft(&plan, &ctx.db, Script::SlowPages { every, extra_ns: ns });
        check_soft(&plan, &ctx.db, Script::Stall { every, ns });
    }

    #[test]
    fn hard_faults_do_not_depend_on_batch_size(
        spec in spec_strategy(),
        pick in any::<u64>(),
        transient in any::<bool>(),
    ) {
        let ctx = make_db(1200, 2);
        let plan = plan_of(&ctx, &spec);
        // Aim at a node and a count the clean run is known to reach.
        let clean = execute(&ctx.db, &plan, &ExecOptions::default());
        let aim = |of: fn(&NodeCounters) -> u64| {
            let reached: Vec<(usize, u64)> = clean
                .final_counters
                .iter()
                .enumerate()
                .map(|(i, c)| (i, of(c)))
                .filter(|&(_, n)| n > 0)
                .collect();
            (!reached.is_empty()).then(|| {
                let (node, n) = reached[pick as usize % reached.len()];
                (NodeId(node), 1 + (pick >> 16) % n)
            })
        };
        if let Some((node, at_pages)) = aim(|c| c.logical_reads) {
            check_hard(&plan, &ctx.db, Script::IoError { node, at_pages, transient });
        }
        if let Some((node, k)) = aim(|c| c.rows_output) {
            check_hard(&plan, &ctx.db, Script::Panic { node, k });
        }
    }
}

/// Batch execution with an injector attached once charged I/O through
/// scopes that never asked it. Now every charge and every row
/// of the production path reaches the hooks: a script that fires (at no
/// cost) on every visit sees each node's final counter go by.
#[test]
fn batch_mode_reaches_every_hook() {
    let ctx = make_db(2000, 1);
    let mut b = PlanBuilder::new(&ctx.db);
    let l = b.table_scan(ctx.table);
    let r = b.index_scan(ctx.index);
    let j = b.hash_join(lqs_plan::JoinKind::Inner, l, r, vec![1], vec![1]);
    let spool = b.spool(j, false);
    let plan = b.finish(spool);
    let every_read = Script::SlowPages {
        every: 1,
        extra_ns: 0,
    };
    let every_row = Script::Stall { every: 1, ns: 0 };
    for (script, of) in [
        (
            every_read,
            (|c| c.logical_reads) as fn(&NodeCounters) -> u64,
        ),
        (every_row, |c| c.rows_output),
    ] {
        let (run, injector) = run_with(&ctx.db, &plan, 1024, script);
        let finals: Vec<u64> = run.final_counters.iter().map(of).collect();
        assert!(finals.iter().sum::<u64>() > 0);
        let mut reached = vec![0; plan.len()];
        for (_, node, total) in injector.fired_sorted() {
            reached[node] = total.max(reached[node]);
        }
        assert_eq!(reached, finals, "{script:?}");
    }
}

/// Regression: a fault raised inside a live scope must flush it first.
/// `Drop` skips the clock while unwinding, so an unflushed scope would
/// leave the CPU charged before the failed read — and the read itself —
/// out of `at_ns` and out of the node's self-time.
#[test]
fn fault_inside_a_scope_flushes_before_raising() {
    let db = Database::new();
    let injector = Scripted::new(Script::IoError {
        node: NodeId(1),
        at_pages: 3,
        transient: true,
    });
    let cost = CostModel::default();
    let io_ns = (2.0 * cost.io_page_ns) as u64;
    let ctx = ExecContext::new(&db, 2, 0, u64::MAX, cost).with_fault(&injector);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut scope = ctx.batch_charge(NodeId(1));
        scope.rows_in(5);
        scope.cpu(300.5);
        scope.io(2); // 2 pages: below the threshold
        scope.cpu(100.0);
        scope.io(2); // 4 pages: fails
        unreachable!("the second read fails");
    }))
    .expect_err("scripted I/O error");
    let fault = payload.downcast::<QueryFault>().expect("QueryFault");
    assert!(fault.transient);
    assert_eq!(fault.at_ns, 400 + 2 * io_ns);
    assert_eq!(ctx.now_ns(), fault.at_ns);
    assert_eq!(ctx.elapsed_of(NodeId(1)), fault.at_ns);
    let c = ctx.counters_of(NodeId(1));
    assert_eq!((c.rows_input, c.cpu_ns, c.logical_reads), (5, 400, 4));
}
