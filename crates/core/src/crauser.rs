//! Crauser et al.'s criteria-based parallel Dijkstra.
//!
//! The paper's related work points at parallel Dijkstra variants (e.g. in
//! the Parallel Boost Graph Library) as the main alternative line to
//! Δ-stepping. This module implements the strongest of those, the
//! IN/OUT-criteria algorithm of Crauser, Mehlhorn, Meyer and Sanders
//! (MFCS '98): per phase, every unsettled vertex `v` may be settled if
//!
//! * **OUT criterion** — `d(v) ≤ min over unsettled u of (d(u) + w_min(u))`
//!   (no future relaxation can undercut it), or
//! * **IN criterion** — `d(v) − w_min(v) ≤ min over unsettled u of d(u)`
//!   (no unsettled vertex could reach it more cheaply).
//!
//! Each settled vertex relaxes its edges exactly once, so the total work
//! matches Dijkstra's `2m` bound while extracting far more parallelism per
//! phase. Runs bulk-synchronously on the same simulated machine as the
//! Δ-stepping engine, with the same accounting, so its GTEPS are directly
//! comparable (it serves as the "work-optimal baseline" ablation).

use sssp_comm::cost::{MachineModel, TimeLedger};
use sssp_comm::stats::CommStats;
use sssp_dist::DistGraph;
use sssp_graph::VertexId;

use crate::sim::SimMachine;
use crate::state::INF;

/// Run statistics of the Crauser algorithm.
#[derive(Debug, Clone, Default)]
pub struct CrauserStats {
    /// Number of phases (parallel Dijkstra rounds).
    pub phases: u64,
    /// Total edge relaxations performed.
    pub relaxations: u64,
    /// Vertices settled per phase (shows the parallelism the criteria
    /// extract compared to Dijkstra's one-per-phase).
    pub settled_per_phase: Vec<u64>,
    /// Message traffic ledger.
    pub comm: CommStats,
    /// Simulated time ledger.
    pub ledger: TimeLedger,
}

impl CrauserStats {
    /// Traversal rate in GTEPS given the graph’s directed edge count.
    pub fn gteps(&self, m_edges: u64) -> f64 {
        sssp_comm::cost::teps(m_edges, self.ledger.total_s()) / 1e9
    }
}

/// Output: distances indexed by global vertex id.
#[derive(Debug, Clone)]
pub struct CrauserOutput {
    /// Final distances indexed by global vertex id.
    pub distances: Vec<u64>,
    /// Full instrumentation record.
    pub stats: CrauserStats,
}

#[derive(Debug, Clone, Copy)]
struct RelaxMsg {
    target: u32,
    nd: u64,
}
const RELAX_BYTES: usize = 16;

/// Run criteria-based parallel Dijkstra from `root`.
pub fn run_crauser(dg: &DistGraph, root: VertexId, model: &MachineModel) -> CrauserOutput {
    let p = dg.num_ranks();
    let n = dg.num_vertices();
    let mut m = SimMachine::new(dg, model);
    let mut stats = CrauserStats::default();

    struct Rank {
        dist: Vec<u64>,
        settled: Vec<bool>,
        /// Smallest incident weight per local vertex (`u32::MAX` if none).
        min_w: Vec<u32>,
    }

    let mut ranks: Vec<Rank> = (0..p)
        .map(|r| {
            let nl = dg.part.local_count(r);
            let min_w = (0..nl)
                .map(|v| dg.locals[r].row(v).1.first().copied().unwrap_or(u32::MAX))
                .collect();
            Rank {
                dist: vec![INF; nl],
                settled: vec![false; nl],
                min_w,
            }
        })
        .collect();

    if n == 0 {
        return CrauserOutput {
            distances: Vec::new(),
            stats,
        };
    }
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    ranks[dg.part.owner(root)].dist[dg.part.to_local(root)] = 0;
    let mut mail = m.mailboxes();

    loop {
        // Global minima over unsettled finite vertices: d_min and the OUT
        // threshold L = min(d(u) + w_min(u)).
        let mut anyv = Vec::with_capacity(p);
        let mut dmins = Vec::with_capacity(p);
        let mut louts = Vec::with_capacity(p);
        for rk in &ranks {
            let mut dmin = u64::MAX;
            let mut lout = u64::MAX;
            let mut any = false;
            for v in 0..rk.dist.len() {
                if rk.settled[v] || rk.dist[v] == INF {
                    continue;
                }
                any = true;
                dmin = dmin.min(rk.dist[v]);
                if rk.min_w[v] != u32::MAX {
                    lout = lout.min(rk.dist[v] + rk.min_w[v] as u64);
                }
            }
            anyv.push(any);
            dmins.push(dmin);
            louts.push(lout);
        }
        if !m.any(&anyv) {
            break;
        }
        let d_min = m.min(&dmins);
        let l_out = m.min(&louts);

        // Settle by OUT / IN criteria and relax the settled vertices' edges.
        let mut settled_total = 0u64;
        for (r, (rk, mb)) in ranks.iter_mut().zip(&mut mail).enumerate() {
            let lg = &dg.locals[r];
            for v in 0..rk.dist.len() {
                if rk.settled[v] || rk.dist[v] == INF {
                    continue;
                }
                let dv = rk.dist[v];
                let out_ok = dv <= l_out;
                let in_ok =
                    rk.min_w[v] != u32::MAX && dv.saturating_sub(rk.min_w[v] as u64) <= d_min;
                if !(out_ok || in_ok) {
                    continue;
                }
                rk.settled[v] = true;
                settled_total += 1;
                let (ts, ws) = lg.row(v);
                for (&t, &w) in ts.iter().zip(ws) {
                    let msg = RelaxMsg {
                        target: dg.part.to_local(t) as u32,
                        nd: dv + w as u64,
                    };
                    mb.send(dg.part.owner(t), msg);
                }
            }
        }
        debug_assert!(
            settled_total > 0,
            "criteria must settle at least the minimum"
        );
        let step = m.exchange(&mut mail, RELAX_BYTES);
        for (rk, mb) in ranks.iter_mut().zip(&mail) {
            for msg in &mb.inbox {
                let t = msg.target as usize;
                if !rk.settled[t] && msg.nd < rk.dist[t] {
                    rk.dist[t] = msg.nd;
                }
            }
        }

        stats.phases += 1;
        stats.relaxations += step.local_msgs + step.remote_msgs;
        stats.settled_per_phase.push(settled_total);
    }

    let mut distances = vec![INF; n];
    for (r, rk) in ranks.iter().enumerate() {
        for (l, &d) in rk.dist.iter().enumerate() {
            distances[dg.part.to_global(r, l) as usize] = d;
        }
    }
    stats.comm = m.comm;
    stats.ledger = m.ledger;
    CrauserOutput { distances, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sssp_graph::{gen, CsrBuilder};

    fn model() -> MachineModel {
        MachineModel::bgq_like()
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..6 {
            let g = CsrBuilder::new().build(&gen::uniform(150, 900, 40, seed));
            let expect = seq::dijkstra(&g, 0);
            for p in [1usize, 4, 7] {
                let dg = DistGraph::build(&g, p, 2);
                let out = run_crauser(&dg, 0, &model());
                assert_eq!(out.distances, expect, "seed {seed} p {p}");
            }
        }
    }

    #[test]
    fn relaxes_each_edge_at_most_twice() {
        let g = CsrBuilder::new().build(&gen::uniform(200, 1400, 30, 3));
        let dg = DistGraph::build(&g, 4, 2);
        let out = run_crauser(&dg, 0, &model());
        assert!(out.stats.relaxations <= 2 * g.num_undirected_edges() as u64);
    }

    #[test]
    fn uses_fewer_phases_than_dijkstra() {
        let g = CsrBuilder::new().build(&gen::uniform(300, 2400, 50, 7));
        let dg = DistGraph::build(&g, 4, 2);
        let crauser = run_crauser(&dg, 0, &model());
        let dij = crate::engine::run_sssp(&dg, 0, &crate::SsspConfig::dijkstra(), &model());
        assert_eq!(crauser.distances, dij.distances);
        assert!(
            crauser.stats.phases < dij.stats.phases,
            "Crauser {} phases vs Dijkstra {}",
            crauser.stats.phases,
            dij.stats.phases
        );
        // The criteria settle multiple vertices in most phases.
        let multi = crauser
            .stats
            .settled_per_phase
            .iter()
            .filter(|&&k| k > 1)
            .count();
        assert!(multi > 0);
    }

    #[test]
    fn settled_counts_sum_to_reachable() {
        let g = CsrBuilder::new().build(&gen::uniform(120, 700, 20, 9));
        let dg = DistGraph::build(&g, 3, 2);
        let out = run_crauser(&dg, 0, &model());
        let reachable = out.distances.iter().filter(|&&d| d != INF).count() as u64;
        let settled: u64 = out.stats.settled_per_phase.iter().sum();
        assert_eq!(settled, reachable);
    }

    #[test]
    fn path_graph_settles_out_criterion() {
        // On a uniform-weight path the OUT criterion settles the whole
        // frontier wave; with w constant, d(u) + w_min is always the next
        // vertex's distance.
        let g = CsrBuilder::new().build(&gen::path(30, 5));
        let dg = DistGraph::build(&g, 3, 1);
        let out = run_crauser(&dg, 0, &model());
        assert_eq!(out.distances[29], 29 * 5);
    }

    #[test]
    fn empty_and_single_vertex() {
        let g = CsrBuilder::new().build(&sssp_graph::EdgeList::new(1));
        let dg = DistGraph::build(&g, 2, 1);
        let out = run_crauser(&dg, 0, &model());
        assert_eq!(out.distances, vec![0]);
    }
}
