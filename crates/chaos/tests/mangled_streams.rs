//! Property test over telemetry-channel faults (the satellite invariant):
//! for *any* combination of drop / delay / duplicate / reorder /
//! counter-reset probabilities and any channel seed, the guarded estimator
//! fed the mangled stream must (a) keep every report's progress inside
//! [0, 1], (b) stamp the report `Degraded` whenever it absorbed an
//! anomaly, and (c) — once the true final snapshot arrives (the terminal
//! publish bypasses the filter) — report exactly what a fault-free
//! estimator reports for that snapshot.

use lqs_chaos::{mangle_stream, ChannelFaults};
use lqs_exec::{execute, DmvSnapshot, ExecOptions, QueryRun};
use lqs_plan::{AggFunc, Aggregate, PhysicalPlan, PlanBuilder};
use lqs_progress::{EnsembleEstimator, EstimatorConfig, GuardedEstimator, ProgressEstimator};
use lqs_storage::{Column, DataType, Database, Schema, Table, Value};
use proptest::prelude::*;
use std::sync::OnceLock;

struct Ctx {
    db: Database,
    plan: PhysicalPlan,
    run: QueryRun,
    fault_free_final: f64,
}

/// One real execution, shared across cases: the property quantifies over
/// the *channel*, not the query, so re-running the query per case would
/// only burn time.
fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        );
        for i in 0..3000 {
            t.insert(vec![Value::Int(i), Value::Int((i * 13) % 80)])
                .unwrap();
        }
        let mut db = Database::new();
        let tid = db.add_table_analyzed(t);
        let plan = {
            let mut b = PlanBuilder::new(&db);
            let scan = b.table_scan(tid);
            let agg = b.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
            b.finish(agg)
        };
        let run = execute(&db, &plan, &ExecOptions::default());
        assert!(
            run.snapshots.len() >= 8,
            "need a multi-snapshot run to mangle"
        );
        let final_snap = DmvSnapshot {
            ts_ns: run.duration_ns,
            nodes: run.final_counters.clone(),
        };
        let fault_free_final = ProgressEstimator::with_cost_model(
            &plan,
            &db,
            EstimatorConfig::full(),
            &run.cost_model,
        )
        .estimate(&final_snap)
        .query_progress;
        Ctx {
            db,
            plan,
            run,
            fault_free_final,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_mangled_stream_degrades_gracefully(
        drop_p in 0.0..0.9f64,
        delay_p in 0.0..0.9f64,
        duplicate_p in 0.0..0.9f64,
        reorder_p in 0.0..0.9f64,
        reset_p in 0.0..0.9f64,
        delay_max_held in 1usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let ctx = ctx();
        let faults = ChannelFaults {
            drop_p,
            delay_p,
            delay_max_held,
            duplicate_p,
            reorder_p,
            reset_p,
        };
        let mangled = mangle_stream(&ctx.run.snapshots, &faults, seed);

        let mut guard = GuardedEstimator::new(EnsembleEstimator::single(
            ProgressEstimator::with_cost_model(&ctx.plan, &ctx.db, EstimatorConfig::full(), &ctx.run.cost_model),
        ));
        for s in &mangled {
            let r = guard.observe(s);
            prop_assert!(
                (-1e-9..=1.0 + 1e-9).contains(&r.query_progress),
                "mangled progress {} out of bounds", r.query_progress
            );
            // A report that absorbed any anomaly must say so.
            if guard.anomalies().total() > 0 {
                prop_assert_eq!(r.quality, lqs_progress::EstimateQuality::Degraded);
            }
        }

        // The terminal publish always delivers the true final snapshot.
        let final_snap = DmvSnapshot {
            ts_ns: ctx.run.duration_ns,
            nodes: ctx.run.final_counters.clone(),
        };
        let final_report = guard.observe(&final_snap);
        prop_assert!(
            (final_report.query_progress - ctx.fault_free_final).abs() <= 1e-9,
            "mangled final {} != fault-free final {}",
            final_report.query_progress,
            ctx.fault_free_final
        );
    }
}
