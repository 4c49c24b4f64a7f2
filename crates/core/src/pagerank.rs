//! Distributed PageRank on the simulated machine.
//!
//! A companion kernel in the same data-intensive family the Graph 500
//! effort targets (§I-B): power iteration with damping, executed as
//! bulk-synchronous supersteps over the same [`DistGraph`] and cost model
//! as the SSSP engine. Included both as a usefulness test of the substrate
//! (a kernel with completely different traffic: dense, regular, every edge
//! every iteration) and as a baseline for comparing communication profiles.

use sssp_comm::cost::{MachineModel, TimeLedger};
use sssp_comm::stats::CommStats;
use sssp_dist::DistGraph;

use crate::sim::SimMachine;

/// PageRank parameters.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor (the classic 0.85).
    pub damping: f64,
    /// Stop when the max per-vertex change drops below this.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            tolerance: 1e-9,
            max_iterations: 100,
        }
    }
}

/// PageRank output.
#[derive(Debug, Clone)]
pub struct PageRankOutput {
    /// Score per global vertex; sums to ~1 over all vertices.
    pub scores: Vec<f64>,
    /// Iterations actually run.
    pub iterations: usize,
    /// Whether the L1 residual fell below tolerance.
    pub converged: bool,
    /// Message traffic ledger.
    pub comm: CommStats,
    /// Simulated time ledger.
    pub ledger: TimeLedger,
}

#[derive(Debug, Clone, Copy)]
struct RankMsg {
    target: u32,
    contrib: f64,
}
const RANK_BYTES: usize = 12;

/// Run PageRank over the undirected graph (each edge treated as two
/// directed links, the standard convention for undirected PageRank).
pub fn run_pagerank(dg: &DistGraph, cfg: &PageRankConfig, model: &MachineModel) -> PageRankOutput {
    let p = dg.num_ranks();
    let n = dg.num_vertices();
    let mut m = SimMachine::new(dg, model);

    let mut scores: Vec<Vec<f64>> = (0..p)
        .map(|r| vec![1.0 / n.max(1) as f64; dg.part.local_count(r)])
        .collect();
    if n == 0 {
        return PageRankOutput {
            scores: Vec::new(),
            iterations: 0,
            converged: true,
            comm: m.comm,
            ledger: m.ledger,
        };
    }

    let base = (1.0 - cfg.damping) / n as f64;
    let mut mail = m.mailboxes();
    let mut iterations = 0;
    let mut converged = false;

    while iterations < cfg.max_iterations {
        iterations += 1;

        // Dangling mass (degree-0 vertices) is redistributed uniformly.
        let dangling: Vec<f64> = scores
            .iter()
            .enumerate()
            .map(|(r, sc)| {
                sc.iter()
                    .enumerate()
                    .filter(|&(v, _)| dg.locals[r].degree(v) == 0)
                    .map(|(_, &s)| s)
                    .sum()
            })
            .collect();
        let dangling_total = m.sum_f64(&dangling);

        // Push contributions along every edge.
        for (r, (sc, mb)) in scores.iter().zip(&mut mail).enumerate() {
            let lg = &dg.locals[r];
            for (v, &s) in sc.iter().enumerate() {
                let (ts, _) = lg.row(v);
                if ts.is_empty() {
                    continue;
                }
                let contrib = s / ts.len() as f64;
                for &t in ts {
                    let target = dg.part.to_local(t) as u32;
                    mb.send(dg.part.owner(t), RankMsg { target, contrib });
                }
            }
        }
        m.exchange(&mut mail, RANK_BYTES);

        // Accumulate and measure the residual.
        let deltas: Vec<f64> = scores
            .iter_mut()
            .zip(&mail)
            .map(|(sc, mb)| {
                let mut incoming = vec![0.0f64; sc.len()];
                for msg in &mb.inbox {
                    incoming[msg.target as usize] += msg.contrib;
                }
                let mut max_delta = 0.0f64;
                for (v, s) in sc.iter_mut().enumerate() {
                    let next = base + cfg.damping * (incoming[v] + dangling_total / n as f64);
                    max_delta = max_delta.max((next - *s).abs());
                    *s = next;
                }
                max_delta
            })
            .collect();

        // Convergence allreduce.
        if m.max_f64(&deltas) < cfg.tolerance {
            converged = true;
            break;
        }
    }

    let mut global = vec![0.0; n];
    for (r, sc) in scores.iter().enumerate() {
        for (l, &s) in sc.iter().enumerate() {
            global[dg.part.to_global(r, l) as usize] = s;
        }
    }
    PageRankOutput {
        scores: global,
        iterations,
        converged,
        comm: m.comm,
        ledger: m.ledger,
    }
}

/// Sequential reference PageRank (same conventions).
pub fn seq_pagerank(g: &sssp_graph::Csr, cfg: &PageRankConfig) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut scores = vec![1.0 / n as f64; n];
    let base = (1.0 - cfg.damping) / n as f64;
    for _ in 0..cfg.max_iterations {
        let dangling: f64 = g
            .vertices()
            .filter(|&v| g.degree(v) == 0)
            .map(|v| scores[v as usize])
            .sum();
        let mut next = vec![base + cfg.damping * dangling / n as f64; n];
        for u in g.vertices() {
            let deg = g.degree(u);
            if deg == 0 {
                continue;
            }
            let contrib = cfg.damping * scores[u as usize] / deg as f64;
            for (v, _) in g.row(u) {
                next[v as usize] += contrib;
            }
        }
        let max_delta = scores
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        scores = next;
        if max_delta < cfg.tolerance {
            break;
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssp_graph::{gen, CsrBuilder};

    fn model() -> MachineModel {
        MachineModel::bgq_like()
    }

    #[test]
    fn matches_sequential_reference() {
        let g = CsrBuilder::new().build(&gen::uniform(100, 600, 10, 4));
        let expect = seq_pagerank(&g, &PageRankConfig::default());
        for p in [1usize, 3, 7] {
            let dg = DistGraph::build(&g, p, 2);
            let out = run_pagerank(&dg, &PageRankConfig::default(), &model());
            for (v, (&got, &want)) in out.scores.iter().zip(&expect).enumerate() {
                assert!((got - want).abs() < 1e-8, "p={p} v={v}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn scores_sum_to_one() {
        let g = CsrBuilder::new().build(&gen::uniform(80, 500, 10, 7));
        let dg = DistGraph::build(&g, 4, 2);
        let out = run_pagerank(&dg, &PageRankConfig::default(), &model());
        let total: f64 = out.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "sum = {total}");
        assert!(out.converged);
    }

    #[test]
    fn hub_outranks_leaves() {
        let g = CsrBuilder::new().build(&gen::star(20, 1));
        let dg = DistGraph::build(&g, 3, 1);
        let out = run_pagerank(&dg, &PageRankConfig::default(), &model());
        for leaf in 1..20 {
            assert!(out.scores[0] > out.scores[leaf]);
        }
    }

    #[test]
    fn symmetric_graph_gives_uniform_scores() {
        // On a clique every vertex is equivalent.
        let g = CsrBuilder::new().build(&gen::clique(8, 1));
        let dg = DistGraph::build(&g, 2, 1);
        let out = run_pagerank(&dg, &PageRankConfig::default(), &model());
        for v in 1..8 {
            assert!((out.scores[v] - out.scores[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn dangling_vertices_keep_base_rank() {
        let mut el = gen::path(3, 1);
        el.n = 5; // two isolated (dangling) vertices
        let g = CsrBuilder::new().build(&el);
        let dg = DistGraph::build(&g, 2, 1);
        let out = run_pagerank(&dg, &PageRankConfig::default(), &model());
        let total: f64 = out.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(out.scores[3] > 0.0);
        assert!((out.scores[3] - out.scores[4]).abs() < 1e-12);
    }

    #[test]
    fn iteration_cap_respected() {
        let g = CsrBuilder::new().build(&gen::uniform(50, 300, 5, 1));
        let dg = DistGraph::build(&g, 2, 1);
        let cfg = PageRankConfig {
            tolerance: 0.0,
            max_iterations: 5,
            ..Default::default()
        };
        let out = run_pagerank(&dg, &cfg, &model());
        assert_eq!(out.iterations, 5);
        assert!(!out.converged);
    }
}
