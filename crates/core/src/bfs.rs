//! Distributed direction-optimizing BFS on the same simulated machine.
//!
//! The paper frames its SSSP results against Blue Gene/Q BFS numbers
//! (Fig. 1: SSSP lands within 2–5× of same-machine BFS) and borrows BFS's
//! direction-optimization idea [Beamer et al., SC'12] for its pruning
//! heuristic. This module provides that comparison point: a
//! level-synchronous BFS over a [`DistGraph`], switching between
//!
//! * **top-down** — frontier owners push visit messages along all incident
//!   edges, and
//! * **bottom-up** — every rank receives the frontier bitmap (allgather)
//!   and scans its own unvisited vertices for a frontier neighbor,
//!
//! using Beamer's edge-count heuristic. Traffic and simulated time are
//! accounted with the same [`MachineModel`] as the SSSP engine, so
//! BFS-vs-SSSP GTEPS ratios are directly comparable.

use sssp_comm::cost::{MachineModel, TimeClass, TimeLedger};
use sssp_comm::exchange::Mailbox;
use sssp_comm::stats::CommStats;
use sssp_dist::DistGraph;
use sssp_graph::VertexId;

use crate::sim::SimMachine;

/// Unvisited marker in the depth array.
pub const UNVISITED: u32 = u32::MAX;

/// Which direction a BFS level ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BfsDirection {
    /// Frontier owners push to neighbors.
    TopDown,
    /// Unvisited vertices probe the frontier (direction-optimized).
    BottomUp,
}

/// Per-level record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BfsLevelRecord {
    /// BFS depth of this level.
    pub level: u32,
    /// Traversal direction chosen for this level.
    pub direction: BfsDirection,
    /// Number of frontier vertices entering the level.
    pub frontier_size: u64,
    /// Edges examined during the level.
    pub edges_examined: u64,
}

/// BFS run statistics.
#[derive(Debug, Clone, Default)]
pub struct BfsStats {
    /// Per-level records, in depth order.
    pub levels: Vec<BfsLevelRecord>,
    /// Number of vertices reached.
    pub visited: u64,
    /// Edges examined across all levels.
    pub edges_examined_total: u64,
    /// Message traffic ledger.
    pub comm: CommStats,
    /// Simulated time ledger.
    pub ledger: TimeLedger,
}

impl BfsStats {
    /// Traversal rate in GTEPS given the graph’s directed edge count.
    pub fn gteps(&self, m_edges: u64) -> f64 {
        sssp_comm::cost::teps(m_edges, self.ledger.total_s()) / 1e9
    }
}

/// BFS output: hop distance per global vertex (`u32::MAX` = unreachable).
#[derive(Debug, Clone)]
pub struct BfsOutput {
    /// BFS depth per vertex (`u32::MAX` = unreached).
    pub depth: Vec<u32>,
    /// Full instrumentation record.
    pub stats: BfsStats,
}

/// Beamer's switching parameters: go bottom-up when the frontier's edge
/// count exceeds `m / ALPHA`; return to top-down when the frontier shrinks
/// below `n / BETA`.
const ALPHA: u64 = 14;
const BETA: u64 = 24;

/// Run a direction-optimizing BFS from `root`.
///
/// # Examples
///
/// ```
/// use sssp_core::bfs::run_bfs;
/// use sssp_comm::cost::MachineModel;
/// use sssp_dist::DistGraph;
/// use sssp_graph::{gen, CsrBuilder};
///
/// let csr = CsrBuilder::new().build(&gen::star(6, 9)); // weights ignored
/// let dg = DistGraph::build(&csr, 2, 2);
/// let out = run_bfs(&dg, 0, &MachineModel::bgq_like());
/// assert_eq!(out.depth, vec![0, 1, 1, 1, 1, 1]);
/// ```
pub fn run_bfs(dg: &DistGraph, root: VertexId, model: &MachineModel) -> BfsOutput {
    let p = dg.num_ranks();
    let n = dg.num_vertices();
    let mut m = SimMachine::new(dg, model);
    let mut stats = BfsStats::default();

    let mut depth: Vec<Vec<u32>> = (0..p)
        .map(|r| vec![UNVISITED; dg.part.local_count(r)])
        .collect();
    let mut frontier: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();

    if n == 0 {
        return finishup(dg, depth, stats, m);
    }
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    let ro = dg.part.owner(root);
    let rl = dg.part.to_local(root) as u32;
    depth[ro][rl as usize] = 0;
    frontier[ro].push(rl);

    let mut mail = m.mailboxes();
    let mut level = 0u32;
    loop {
        let any: Vec<bool> = frontier.iter().map(|f| !f.is_empty()).collect();
        if !m.any(&any) {
            break;
        }

        // Direction decision: frontier edge volume vs thresholds.
        let fe: Vec<u64> = frontier
            .iter()
            .enumerate()
            .map(|(r, f)| {
                f.iter()
                    .map(|&v| dg.locals[r].degree(v as usize) as u64)
                    .sum()
            })
            .collect();
        let frontier_edges = m.sum(&fe);
        let fs: Vec<u64> = frontier.iter().map(|f| f.len() as u64).collect();
        let frontier_size = m.sum(&fs);
        let bottom_up = frontier_edges > dg.m_directed / ALPHA
            || (level > 0 && frontier_size > n as u64 / BETA);

        let (next, examined) = if bottom_up {
            bottom_up_level(dg, &mut depth, &frontier, level, &mut m)
        } else {
            top_down_level(dg, &mut depth, &frontier, &mut mail, level, &mut m)
        };
        stats.levels.push(BfsLevelRecord {
            level,
            direction: if bottom_up {
                BfsDirection::BottomUp
            } else {
                BfsDirection::TopDown
            },
            frontier_size,
            edges_examined: examined,
        });
        stats.edges_examined_total += examined;
        frontier = next;
        level += 1;
    }

    finishup(dg, depth, stats, m)
}

fn finishup(dg: &DistGraph, depth: Vec<Vec<u32>>, mut stats: BfsStats, m: SimMachine) -> BfsOutput {
    let mut global = vec![UNVISITED; dg.num_vertices()];
    for (r, d) in depth.iter().enumerate() {
        for (l, &x) in d.iter().enumerate() {
            global[dg.part.to_global(r, l) as usize] = x;
        }
    }
    stats.visited = global.iter().filter(|&&d| d != UNVISITED).count() as u64;
    stats.comm = m.comm;
    stats.ledger = m.ledger;
    BfsOutput {
        depth: global,
        stats,
    }
}

/// Visit message: mark `target` (local on destination) at depth `level+1`.
#[derive(Debug, Clone, Copy)]
struct VisitMsg {
    target: u32,
}
const VISIT_BYTES: usize = 8;

/// Frontier owners send a visit along every incident edge; the owner of
/// each target marks it if unvisited. Returns the next frontier and the
/// edges examined (one visit message each).
fn top_down_level(
    dg: &DistGraph,
    depth: &mut [Vec<u32>],
    frontier: &[Vec<u32>],
    mail: &mut [Mailbox<VisitMsg>],
    level: u32,
    m: &mut SimMachine,
) -> (Vec<Vec<u32>>, u64) {
    for (r, (f, mb)) in frontier.iter().zip(mail.iter_mut()).enumerate() {
        let lg = &dg.locals[r];
        for &u in f {
            for &v in lg.row(u as usize).0 {
                let target = dg.part.to_local(v) as u32;
                mb.send(dg.part.owner(v), VisitMsg { target });
            }
        }
    }
    let step = m.exchange(mail, VISIT_BYTES);

    let next = depth
        .iter_mut()
        .zip(mail.iter())
        .map(|(d, mb)| {
            let mut nf = Vec::new();
            for msg in &mb.inbox {
                let t = msg.target as usize;
                if d[t] == UNVISITED {
                    d[t] = level + 1;
                    nf.push(msg.target);
                }
            }
            nf
        })
        .collect();
    (next, step.local_msgs + step.remote_msgs)
}

fn bottom_up_level(
    dg: &DistGraph,
    depth: &mut [Vec<u32>],
    frontier: &[Vec<u32>],
    level: u32,
    m: &mut SimMachine,
) -> (Vec<Vec<u32>>, u64) {
    let p = dg.num_ranks();
    let n = dg.num_vertices();

    // Allgather the frontier as a global bitmap (n bits per rank on the
    // wire — the bottom-up direction's communication cost).
    let mut bitmap = vec![false; n];
    for (r, f) in frontier.iter().enumerate() {
        for &v in f {
            bitmap[dg.part.to_global(r, v as usize) as usize] = true;
        }
    }
    m.comm.collectives += 1;
    m.collective(TimeClass::Relax);
    let bitmap_bytes = (n as u64 / 8 + 1) * p as u64;
    m.ledger
        .charge_superstep(m.model, TimeClass::Relax, 0, bitmap_bytes);

    let mut next = Vec::with_capacity(p);
    let mut examined = 0u64;
    for (r, d) in depth.iter_mut().enumerate() {
        let lg = &dg.locals[r];
        let mut nf = Vec::new();
        for (v, dv) in d.iter_mut().enumerate() {
            if *dv != UNVISITED {
                continue;
            }
            for &u in lg.row(v).0 {
                examined += 1;
                if bitmap[u as usize] {
                    *dv = level + 1;
                    nf.push(v as u32);
                    break; // early exit: one frontier parent suffices
                }
            }
        }
        next.push(nf);
    }
    m.charge(examined, 0);
    (next, examined)
}

/// Sequential reference BFS (hop distances).
pub fn seq_bfs(g: &sssp_graph::Csr, root: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    assert!((root as usize) < n);
    let mut depth = vec![UNVISITED; n];
    let mut queue = std::collections::VecDeque::new();
    depth[root as usize] = 0;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let du = depth[u as usize];
        for (v, _) in g.row(u) {
            if depth[v as usize] == UNVISITED {
                depth[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssp_graph::{gen, CsrBuilder};

    fn model() -> MachineModel {
        MachineModel::bgq_like()
    }

    #[test]
    fn bfs_on_path() {
        let g = CsrBuilder::new().build(&gen::path(6, 9));
        let dg = DistGraph::build(&g, 3, 2);
        let out = run_bfs(&dg, 0, &model());
        assert_eq!(out.depth, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bfs_matches_sequential_on_random_graphs() {
        for seed in 0..5 {
            let g = CsrBuilder::new().build(&gen::uniform(200, 1500, 20, seed));
            let expect = seq_bfs(&g, 0);
            for p in [1, 4, 7] {
                let dg = DistGraph::build(&g, p, 2);
                let out = run_bfs(&dg, 0, &model());
                assert_eq!(out.depth, expect, "seed {seed}, p {p}");
            }
        }
    }

    #[test]
    fn bfs_switches_to_bottom_up_on_dense_frontier() {
        use sssp_graph::rmat::{RmatGenerator, RmatParams};
        let el = RmatGenerator::new(RmatParams::RMAT1, 11, 16)
            .seed(3)
            .generate_weighted(255);
        let g = CsrBuilder::new().build(&el);
        let dg = DistGraph::build(&g, 4, 2);
        let root = g.vertices().find(|&v| g.degree(v) > 0).unwrap();
        let out = run_bfs(&dg, root, &model());
        assert_eq!(out.depth, seq_bfs(&g, root));
        assert!(
            out.stats
                .levels
                .iter()
                .any(|l| l.direction == BfsDirection::BottomUp),
            "scale-free graph should trigger bottom-up levels"
        );
        assert!(
            out.stats
                .levels
                .iter()
                .any(|l| l.direction == BfsDirection::TopDown),
            "first level should be top-down"
        );
    }

    #[test]
    fn direction_optimization_examines_fewer_edges() {
        use sssp_graph::rmat::{RmatGenerator, RmatParams};
        let el = RmatGenerator::new(RmatParams::RMAT1, 11, 16)
            .seed(5)
            .generate_weighted(255);
        let g = CsrBuilder::new().build(&el);
        let dg = DistGraph::build(&g, 4, 2);
        let root = g.vertices().find(|&v| g.degree(v) > 0).unwrap();
        let out = run_bfs(&dg, root, &model());
        // A pure top-down BFS examines every edge slot of the reachable
        // component; direction optimization must beat that.
        assert!(out.stats.edges_examined_total < g.num_directed_edges() as u64);
    }

    #[test]
    fn unreachable_stay_unvisited() {
        let mut el = gen::path(4, 1);
        el.n = 7;
        let g = CsrBuilder::new().build(&el);
        let dg = DistGraph::build(&g, 2, 1);
        let out = run_bfs(&dg, 0, &model());
        assert_eq!(out.stats.visited, 4);
        for v in 4..7 {
            assert_eq!(out.depth[v], UNVISITED);
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = CsrBuilder::new().build(&sssp_graph::EdgeList::new(0));
        let dg = DistGraph::build(&g, 2, 1);
        let out = run_bfs(&dg, 0, &model());
        let _ = out;
    }
}
