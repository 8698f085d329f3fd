//! # lqs-prof — per-operator time attribution and flamegraph export
//!
//! The engine's virtual clock makes profiling exact instead of sampled:
//! every clock advance — CPU, I/O, injected stall — is credited to the plan
//! node that charged it ([`lqs_plan::QueryRun::node_elapsed_ns`]), so a
//! completed run carries a complete self-time account whose entries sum to
//! the run's total duration *by construction*. This crate turns that
//! account into a [`ProfileReport`]:
//!
//! * **exclusive (self) time** per node — the attributed nanoseconds;
//! * **inclusive time** per node — the node's subtree sum, the number a
//!   flamegraph frame width shows;
//! * **collapsed-stack text** ([`ProfileReport::collapsed_stacks`]) —
//!   root-first `frame;frame weight` lines rendered through
//!   [`lqs_obs::to_collapsed_stacks`], loadable in `flamegraph.pl`,
//!   inferno, or speedscope;
//! * **a terminal table** ([`ProfileReport::render_text`]) for the
//!   `lqs_live --profile` view and smoke tests.
//!
//! Two invariants hold for every report and are proptested across the REAL
//! workloads in both exec modes:
//! `Σ self_ns == total_ns` and `inclusive(node) == self(node) + Σ
//! inclusive(children)` (hence `inclusive(root) == total_ns`).
//!
//! Reports profile *executions the engine attributed*: a run reconstructed
//! from a journal has no attribution vector (the journal carries counters,
//! not self-times), and [`ProfileReport::from_run`] answers `None` for it —
//! an explicit no-profile, never a fabricated one.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

use lqs_plan::{NodeId, PhysicalPlan, QueryRun};

/// One plan node's profile entry.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeProfile {
    /// The node's id (index into the plan).
    pub node: usize,
    /// Operator display name.
    pub name: String,
    /// Parent node id; `None` for the root.
    pub parent: Option<usize>,
    /// Exclusive self-time: virtual nanoseconds of clock advance this node
    /// charged (CPU + I/O + stalls).
    pub self_ns: u64,
    /// Inclusive time: `self_ns` plus the inclusive time of every child.
    pub inclusive_ns: u64,
    /// Rows the node output over the run.
    pub rows_output: u64,
    /// CPU nanoseconds charged (a component of `self_ns`).
    pub cpu_ns: u64,
    /// Logical page reads charged.
    pub logical_reads: u64,
    /// Times the node was opened (rewinds included).
    pub executions: u64,
}

/// A completed run's per-operator time profile. Build with
/// [`ProfileReport::from_run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Total virtual duration of the run; equals the sum of all `self_ns`.
    pub total_ns: u64,
    /// Per-node entries, indexed by node id.
    pub nodes: Vec<NodeProfile>,
    /// The plan root's node id.
    pub root: usize,
}

impl ProfileReport {
    /// Build the profile of `run`, executed under `plan`.
    ///
    /// Returns `None` when the run carries no attribution vector of the
    /// plan's arity — runs reconstructed from journals, or a plan/run
    /// mismatch. The caller gets an explicit no-profile answer instead of
    /// zeros that would masquerade as "this query cost nothing".
    pub fn from_run(plan: &PhysicalPlan, run: &QueryRun) -> Option<ProfileReport> {
        let n = plan.len();
        if run.node_elapsed_ns.len() != n || run.final_counters.len() != n {
            return None;
        }
        let mut parent: Vec<Option<usize>> = vec![None; n];
        for (i, node) in plan.nodes().iter().enumerate() {
            for c in &node.children {
                parent[c.0] = Some(i);
            }
        }
        // Inclusive time bottom-up: every child's id is distinct from its
        // parent's and the tree is finite, so iterate nodes in an order
        // that resolves children first via an explicit post-order walk.
        let mut inclusive = vec![0u64; n];
        let mut visited = vec![false; n];
        let mut stack: Vec<(usize, bool)> = vec![(plan.root().0, false)];
        while let Some((i, children_done)) = stack.pop() {
            if children_done {
                inclusive[i] = run.node_elapsed_ns[i]
                    + plan.nodes()[i]
                        .children
                        .iter()
                        .map(|c| inclusive[c.0])
                        .sum::<u64>();
                continue;
            }
            if visited[i] {
                continue;
            }
            visited[i] = true;
            stack.push((i, true));
            for c in &plan.nodes()[i].children {
                stack.push((c.0, false));
            }
        }
        let nodes = (0..n)
            .map(|i| NodeProfile {
                node: i,
                name: plan.nodes()[i].op.display_name().to_owned(),
                parent: parent[i],
                self_ns: run.node_elapsed_ns[i],
                inclusive_ns: inclusive[i],
                rows_output: run.final_counters[i].rows_output,
                cpu_ns: run.final_counters[i].cpu_ns,
                logical_reads: run.final_counters[i].logical_reads,
                executions: run.final_counters[i].executions,
            })
            .collect();
        Some(ProfileReport {
            total_ns: run.duration_ns,
            nodes,
            root: plan.root().0,
        })
    }

    /// The root-first frame path of `node`: every ancestor's frame label
    /// down to the node itself. Frame labels are `name#id` — the id keeps
    /// two same-named siblings (e.g. two Filters) from merging into one
    /// flamegraph frame.
    pub(crate) fn stack_of(&self, node: usize) -> Vec<String> {
        let mut path = Vec::new();
        let mut cur = Some(node);
        while let Some(i) = cur {
            let n = &self.nodes[i];
            path.push(format!("{}#{}", n.name, n.node));
            cur = n.parent;
        }
        path.reverse();
        path
    }

    /// Collapsed-stack (flamegraph) text: one line per node with non-zero
    /// self-time, weighted in virtual nanoseconds. Because self-times sum
    /// to `total_ns`, the rendered flame's total width is exactly the
    /// query's virtual duration.
    pub fn collapsed_stacks(&self) -> String {
        let stacks: Vec<(Vec<String>, u64)> = self
            .nodes
            .iter()
            .map(|n| (self.stack_of(n.node), n.self_ns))
            .collect();
        lqs_obs::to_collapsed_stacks(&stacks)
    }

    /// Fixed-width terminal table, hottest node first (ties broken by node
    /// id, so equal inputs always render byte-identically).
    pub fn render_text(&self) -> String {
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| {
            self.nodes[b]
                .self_ns
                .cmp(&self.nodes[a].self_ns)
                .then(a.cmp(&b))
        });
        let mut out = format!("total {} ns\n", self.total_ns);
        out.push_str("     self_ns  self%      incl_ns    rows_out       reads  node\n");
        for i in order {
            let n = &self.nodes[i];
            let pct = if self.total_ns == 0 {
                0.0
            } else {
                n.self_ns as f64 * 100.0 / self.total_ns as f64
            };
            out.push_str(&format!(
                "{:>12}  {:>5.1}  {:>11}  {:>10}  {:>10}  {}#{}\n",
                n.self_ns, pct, n.inclusive_ns, n.rows_output, n.logical_reads, n.name, n.node
            ));
        }
        out
    }

    /// Check the two attribution invariants, returning the first violation
    /// as a message (test helper; release builds can call it cheaply).
    pub fn check_exact(&self) -> Result<(), String> {
        let sum: u64 = self.nodes.iter().map(|n| n.self_ns).sum();
        if sum != self.total_ns {
            return Err(format!(
                "self-times sum to {sum}, total is {}",
                self.total_ns
            ));
        }
        if self.nodes[self.root].inclusive_ns != self.total_ns {
            return Err(format!(
                "root inclusive {} != total {}",
                self.nodes[self.root].inclusive_ns, self.total_ns
            ));
        }
        for n in &self.nodes {
            if let Some(p) = n.parent {
                if self.nodes[p].inclusive_ns < n.inclusive_ns {
                    return Err(format!(
                        "node {} inclusive {} exceeds parent {} inclusive {}",
                        n.node, n.inclusive_ns, p, self.nodes[p].inclusive_ns
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Convenience: `NodeId`-typed accessor.
impl std::ops::Index<NodeId> for ProfileReport {
    type Output = NodeProfile;

    fn index(&self, id: NodeId) -> &NodeProfile {
        &self.nodes[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqs_exec::{execute, ExecOptions};
    use lqs_plan::{Expr, PlanBuilder, SortKey};
    use lqs_storage::{Column, DataType, Database, Schema, Table, Value};

    fn db() -> (Database, lqs_storage::TableId) {
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

    fn plan(db: &Database, t: lqs_storage::TableId) -> PhysicalPlan {
        let mut b = PlanBuilder::new(db);
        let scan = b.table_scan_filtered(t, Expr::col(1).lt(Expr::lit(48i64)), true);
        let sort = b.sort(scan, vec![SortKey::desc(0)]);
        b.finish(sort)
    }

    #[test]
    fn report_is_exact_in_both_modes() {
        let (db, t) = db();
        let plan = plan(&db, t);
        for batch_size in [1, ExecOptions::default().batch_size] {
            let opts = ExecOptions {
                batch_size,
                ..ExecOptions::default()
            };
            let run = execute(&db, &plan, &opts);
            let report = ProfileReport::from_run(&plan, &run).expect("attributed run");
            report.check_exact().unwrap();
            assert_eq!(report.total_ns, run.duration_ns);
            assert!(report.nodes.iter().any(|n| n.self_ns > 0));
        }
    }

    #[test]
    fn modes_attribute_identically() {
        let (db, t) = db();
        let plan = plan(&db, t);
        let tuple = execute(
            &db,
            &plan,
            &ExecOptions {
                batch_size: 1,
                ..ExecOptions::default()
            },
        );
        let batch = execute(&db, &plan, &ExecOptions::default());
        assert_eq!(tuple.node_elapsed_ns, batch.node_elapsed_ns);
    }

    #[test]
    fn collapsed_stacks_cover_total() {
        let (db, t) = db();
        let plan = plan(&db, t);
        let run = execute(&db, &plan, &ExecOptions::default());
        let report = ProfileReport::from_run(&plan, &run).unwrap();
        let text = report.collapsed_stacks();
        let total: u64 = text
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, run.duration_ns);
        // Leaf frames sit under their ancestors.
        assert!(text.lines().all(|l| l.contains('#')));
    }

    #[test]
    fn journal_reconstructed_runs_have_no_profile() {
        let (db, t) = db();
        let plan = plan(&db, t);
        let mut run = execute(&db, &plan, &ExecOptions::default());
        run.node_elapsed_ns.clear(); // what a journal reconstruction looks like
        assert!(ProfileReport::from_run(&plan, &run).is_none());
    }

    #[test]
    fn render_text_is_deterministic_and_sorted() {
        let (db, t) = db();
        let plan = plan(&db, t);
        let run = execute(&db, &plan, &ExecOptions::default());
        let report = ProfileReport::from_run(&plan, &run).unwrap();
        let a = report.render_text();
        let b = report.render_text();
        assert_eq!(a, b);
        let selfs: Vec<u64> = a
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
            .collect();
        assert!(selfs.windows(2).all(|w| w[0] >= w[1]));
    }
}
