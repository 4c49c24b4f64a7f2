//! Distributed connected components via label propagation.
//!
//! The min-label propagation algorithm on the BSP substrate: every vertex
//! starts labeled with its own id and repeatedly adopts the minimum label
//! among itself and its neighbors; labels stabilize at the component-wise
//! minimum vertex id. Structurally this is Bellman-Ford with `min` instead
//! of `+`, so it exercises the exact communication pattern of the SSSP
//! engine's hybrid tail and serves as a second correctness anchor for the
//! substrate (validated against the union-find reference in `sssp-graph`).

use sssp_comm::cost::{MachineModel, TimeLedger};
use sssp_comm::stats::CommStats;
use sssp_dist::DistGraph;
use sssp_graph::VertexId;

use crate::sim::SimMachine;

/// Connected-components output.
#[derive(Debug, Clone)]
pub struct CcOutput {
    /// Per-vertex label = the minimum vertex id in its component.
    pub labels: Vec<VertexId>,
    /// Label-propagation rounds until fixpoint.
    pub rounds: u64,
    /// Message traffic ledger.
    pub comm: CommStats,
    /// Simulated time ledger.
    pub ledger: TimeLedger,
}

impl CcOutput {
    /// Number of distinct components.
    pub fn num_components(&self) -> usize {
        let mut ls: Vec<VertexId> = self.labels.clone();
        ls.sort_unstable();
        ls.dedup();
        ls.len()
    }
}

#[derive(Debug, Clone, Copy)]
struct LabelMsg {
    target: u32,
    label: VertexId,
}
const LABEL_BYTES: usize = 8;

/// Run min-label propagation until a global fixed point.
pub fn run_cc(dg: &DistGraph, model: &MachineModel) -> CcOutput {
    let p = dg.num_ranks();
    let n = dg.num_vertices();
    let mut m = SimMachine::new(dg, model);

    let mut labels: Vec<Vec<VertexId>> = (0..p)
        .map(|r| {
            (0..dg.part.local_count(r))
                .map(|l| dg.part.to_global(r, l))
                .collect()
        })
        .collect();
    // Initially every vertex is "changed".
    let mut active: Vec<Vec<u32>> = (0..p)
        .map(|r| (0..dg.part.local_count(r) as u32).collect())
        .collect();
    let mut mail = m.mailboxes();
    let mut rounds = 0u64;

    loop {
        let flags: Vec<bool> = active.iter().map(|a| !a.is_empty()).collect();
        if !m.any(&flags) {
            break;
        }
        rounds += 1;

        for (r, mb) in mail.iter_mut().enumerate() {
            let (lg, lab) = (&dg.locals[r], &labels[r]);
            for &v in &active[r] {
                let label = lab[v as usize];
                for &t in lg.row(v as usize).0 {
                    let target = dg.part.to_local(t) as u32;
                    mb.send(dg.part.owner(t), LabelMsg { target, label });
                }
            }
        }
        m.exchange(&mut mail, LABEL_BYTES);

        for ((lab, changed), mb) in labels.iter_mut().zip(&mut active).zip(&mail) {
            changed.clear();
            let mut seen = vec![false; lab.len()];
            for msg in &mb.inbox {
                let t = msg.target as usize;
                if msg.label < lab[t] {
                    lab[t] = msg.label;
                    if !seen[t] {
                        seen[t] = true;
                        changed.push(msg.target);
                    }
                }
            }
        }
        assert!(
            rounds <= n as u64 + 1,
            "label propagation failed to converge"
        );
    }

    let mut global = vec![0 as VertexId; n];
    for (r, lab) in labels.iter().enumerate() {
        for (l, &x) in lab.iter().enumerate() {
            global[dg.part.to_global(r, l) as usize] = x;
        }
    }
    CcOutput {
        labels: global,
        rounds,
        comm: m.comm,
        ledger: m.ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssp_graph::components::components_union_find;
    use sssp_graph::{gen, CsrBuilder};

    fn model() -> MachineModel {
        MachineModel::bgq_like()
    }

    #[test]
    fn matches_union_find_partition() {
        for seed in 0..6 {
            let el = gen::uniform(150, 180, 10, seed);
            let g = CsrBuilder::new().build(&el);
            let reference = components_union_find(&el);
            for p in [1usize, 4, 6] {
                let dg = DistGraph::build(&g, p, 2);
                let out = run_cc(&dg, &model());
                // Same partition: labels agree iff reference labels agree.
                for u in 0..150 {
                    for v in (u + 1)..150 {
                        assert_eq!(
                            out.labels[u] == out.labels[v],
                            reference[u] == reference[v],
                            "seed {seed} p {p} pair ({u},{v})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn labels_are_component_minima() {
        let mut el = gen::path(3, 1); // {0,1,2}
        el.n = 7;
        el.push(5, 6, 1); // {5,6}, isolated: 3, 4
        let g = CsrBuilder::new().build(&el);
        let dg = DistGraph::build(&g, 3, 1);
        let out = run_cc(&dg, &model());
        assert_eq!(out.labels, vec![0, 0, 0, 3, 4, 5, 5]);
        assert_eq!(out.num_components(), 4);
    }

    #[test]
    fn rounds_bounded_by_diameter() {
        let g = CsrBuilder::new().build(&gen::path(20, 1));
        let dg = DistGraph::build(&g, 4, 1);
        let out = run_cc(&dg, &model());
        // Label 0 must travel 19 hops; plus the initial flood + quiescence.
        assert!(
            out.rounds >= 19 && out.rounds <= 22,
            "rounds = {}",
            out.rounds
        );
        assert_eq!(out.num_components(), 1);
    }

    #[test]
    fn clique_converges_fast() {
        let g = CsrBuilder::new().build(&gen::clique(16, 1));
        let dg = DistGraph::build(&g, 4, 1);
        let out = run_cc(&dg, &model());
        assert_eq!(out.num_components(), 1);
        assert!(out.rounds <= 3, "rounds = {}", out.rounds);
    }
}
