//! The distributed SSSP engine (§II–III of the paper).
//!
//! One query executes the configured algorithm over a [`DistGraph`] in
//! bulk-synchronous supersteps:
//!
//! ```text
//! per epoch (bucket k):
//!   short-edge phases      — relax (inner) short edges of active vertices,
//!                            repeat until no tentative distance changes;
//!   long-edge phase        — push (owners of B_k relax long + outer-short
//!                            edges) or pull (later-bucket owners request
//!                            w < d(v) − kΔ; B_k owners respond), chosen per
//!                            bucket by the §III-C decision heuristic;
//! hybrid switch            — once the settled fraction exceeds τ, the
//!                            remaining buckets merge and finish with
//!                            Bellman-Ford phases (§III-D).
//! ```
//!
//! The loop exists once (`epoch.rs`): an SPMD program that a worker runs
//! over the block of ranks it owns, generic over the
//! [`sssp_comm::transport::Transport`] connecting it to the other workers.
//! The two backends differ only in the transport and the recorder:
//!
//! * [`run`] — the simulator: one worker owns every rank over a
//!   [`sssp_comm::transport::SimWorld`] on the calling thread, and a cost
//!   recorder folds the α–β–γ ledger out of what the loop records;
//! * [`crate::engine::threaded::run`] — one OS thread per rank over
//!   [`sssp_comm::threaded::RankCtx`], with bit-identical distances.
//!
//! Collectives synchronize phase/epoch boundaries exactly as the paper's
//! Blue Gene/Q implementation does.

use std::collections::BTreeMap;
use std::time::Instant;

use sssp_comm::cost::MachineModel;
use sssp_comm::transport::SimWorld;
use sssp_dist::DistGraph;
use sssp_graph::VertexId;

use crate::config::{IntraBalance, SsspConfig};
use crate::instrument::RunStats;
use crate::state::INF;

use epoch::{run_epochs, LoopEnd, RankSlot};
use record::CostRecorder;

/// A relaxation proposal: `d(target) ← min(d(target), nd)`.
#[derive(Debug, Clone, Copy)]
pub(super) struct RelaxMsg {
    /// Local index on the destination rank.
    pub(super) target: u32,
    pub(super) nd: u64,
}

/// A pull request: "if `u` is in the current bucket, send me `d(u) + w`".
#[derive(Debug, Clone, Copy)]
pub(super) struct ReqMsg {
    /// Local index of the requested source vertex on the destination rank.
    pub(super) u_local: u32,
    /// Global id of the requesting vertex.
    pub(super) origin: VertexId,
    /// Weight of the edge the request travels along.
    pub(super) w: u32,
}

/// On-wire message sizes charged by the cost model (a packed
/// target + 48-bit distance fits 16 bytes; requests likewise).
pub(super) const RELAX_BYTES: usize = 16;
pub(super) const REQ_BYTES: usize = 16;

/// Result of a run: final distances (indexed by global vertex id, `u64::MAX`
/// = unreachable) plus the full instrumentation record.
#[derive(Debug, Clone)]
pub struct SsspOutput {
    /// Final distances indexed by global vertex id (`u64::MAX` = unreached).
    pub distances: Vec<u64>,
    /// Full instrumentation record.
    pub stats: RunStats,
    /// True when the run stopped at its deadline instead of settling every
    /// bucket — the distance field is partially tentative and must not be
    /// served or cached as final.
    pub timed_out: bool,
}

impl SsspOutput {
    #[inline]
    /// Final distance of `v` ([`INF`] when unreached).
    pub fn dist(&self, v: VertexId) -> u64 {
        self.distances[v as usize]
    }

    /// Number of vertices with a finite distance.
    pub fn reachable(&self) -> u64 {
        self.stats.reachable
    }
}

/// One SSSP query: start from `seeds` (`(vertex, distance)` pairs; a
/// vertex listed twice keeps its smallest seed distance, an empty list
/// settles nothing), optionally stop early once `target`'s distance is
/// final, and optionally stop at a wall-clock `deadline`.
///
/// With a target, the epoch loop stops as soon as the target's tentative
/// distance can no longer improve (one `epoch.target-cutoff` collective
/// per epoch): `distances[target]` is exact, other entries may stay
/// tentative. With a deadline, the loop checks the clock once per epoch
/// (one `epoch.deadline` collective, right after bucket selection) and
/// stops with `timed_out` set once it has passed; entries settled before
/// the cutoff are final, the rest are upper bounds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Query {
    /// Start vertices with their initial distances.
    pub seeds: Vec<(VertexId, u64)>,
    /// Point-to-point target (`None` = settle every reachable vertex).
    pub target: Option<VertexId>,
    /// Wall-clock deadline for the whole query (`None` = unbounded).
    pub deadline: Option<Instant>,
}

impl Query {
    /// Single-source query from `root` at distance 0.
    pub fn from_root(root: VertexId) -> Self {
        Query::from_seeds(&[(root, 0)])
    }

    /// Multi-source query: every vertex's distance to its *nearest*
    /// source (all sources start at distance 0) — a virtual root with
    /// zero-weight edges to each source, without the graph transform.
    pub fn from_sources(sources: &[VertexId]) -> Self {
        Query {
            seeds: sources.iter().map(|&s| (s, 0)).collect(),
            ..Query::default()
        }
    }

    /// Query from arbitrary `(vertex, distance)` seeds.
    pub fn from_seeds(seeds: &[(VertexId, u64)]) -> Self {
        Query {
            seeds: seeds.to_vec(),
            ..Query::default()
        }
    }

    /// Validate against an `n_total`-vertex graph (every seed and the
    /// target must exist — out-of-range vertices panic on both backends)
    /// and canonicalize the seeds.
    pub(super) fn canonical(&self, n_total: usize) -> Query {
        if let Some(tv) = self.target {
            assert!(
                (tv as usize) < n_total,
                "target {tv} out of range (n = {n_total})"
            );
        }
        Query {
            seeds: dedup_seeds(&self.seeds, n_total),
            target: self.target,
            deadline: self.deadline,
        }
    }
}

/// Run `query` on the simulator: one worker owns every rank of the
/// distributed graph and runs the epoch loop over a [`SimWorld`] on the
/// calling thread, while a cost recorder folds the α–β–γ ledger out of
/// what the loop records.
///
/// # Examples
///
/// ```
/// use sssp_core::engine::{run, Query};
/// use sssp_core::SsspConfig;
/// use sssp_comm::cost::MachineModel;
/// use sssp_dist::DistGraph;
/// use sssp_graph::{gen, CsrBuilder};
///
/// let csr = CsrBuilder::new().build(&gen::path(5, 3));
/// let dg = DistGraph::build(&csr, 2, 2);
/// let query = Query { target: Some(2), ..Query::from_root(0) };
/// let out = run(&dg, &query, &SsspConfig::opt(25), &MachineModel::bgq_like());
/// assert_eq!(out.dist(2), 6);
/// ```
pub fn run(dg: &DistGraph, query: &Query, cfg: &SsspConfig, model: &MachineModel) -> SsspOutput {
    let n = dg.num_vertices();
    // Validation runs before the empty-graph return so both degenerate
    // cases behave the same on both backends: out-of-range seeds always
    // panic, an empty seed list always yields all-INF distances.
    let query = query.canonical(n);
    let p = dg.num_ranks();
    let stats = RunStats {
        num_ranks: p,
        threads_per_rank: dg.threads_per_rank,
        ..Default::default()
    };
    let mut rec = CostRecorder::new(stats, model);
    let mut block: Vec<RankSlot> = Vec::new();
    let mut end = LoopEnd::default();
    if n > 0 {
        block = (0..p).map(|r| RankSlot::reuse(None, dg, r)).collect();
        let mut world = SimWorld::new(p);
        end = run_epochs(dg, cfg, model, &query, &mut world, &mut rec, &mut block);
    }
    let mut distances = vec![INF; n];
    for s in &block {
        for (l, &d) in s.st.dist.iter().enumerate() {
            distances[dg.part.to_global(s.st.rank, l) as usize] = d;
        }
    }
    let mut stats = rec.stats;
    stats.reachable = distances.iter().filter(|&&d| d != INF).count() as u64;
    SsspOutput {
        distances,
        stats,
        timed_out: end.timed_out,
    }
}

/// Run the configured SSSP algorithm from `root` on the simulator.
///
/// # Examples
///
/// ```
/// use sssp_core::{run_sssp, SsspConfig};
/// use sssp_comm::cost::MachineModel;
/// use sssp_dist::DistGraph;
/// use sssp_graph::{gen, CsrBuilder};
///
/// let csr = CsrBuilder::new().build(&gen::path(5, 3));
/// let dg = DistGraph::build(&csr, 2, 2);
/// let out = run_sssp(&dg, 0, &SsspConfig::opt(25), &MachineModel::bgq_like());
/// assert_eq!(out.distances, vec![0, 3, 6, 9, 12]);
/// assert_eq!(out.reachable(), 5);
/// ```
pub fn run_sssp(
    dg: &DistGraph,
    root: VertexId,
    cfg: &SsspConfig,
    model: &MachineModel,
) -> SsspOutput {
    run(dg, &Query::from_root(root), cfg, model)
}

/// Run the configured SSSP algorithm from arbitrary `(vertex, distance)`
/// seeds on the simulator (see [`Query::from_seeds`]).
pub fn run_sssp_seeded(
    dg: &DistGraph,
    seeds: &[(VertexId, u64)],
    cfg: &SsspConfig,
    model: &MachineModel,
) -> SsspOutput {
    run(dg, &Query::from_seeds(seeds), cfg, model)
}

/// Validate and canonicalize a seed list: every seed vertex must exist,
/// and a vertex listed twice keeps its smallest seed distance — so the
/// relax order of duplicate seeds can never matter. An empty list is
/// legal: the run settles nothing and every distance stays [`INF`].
fn dedup_seeds(seeds: &[(VertexId, u64)], n_total: usize) -> Vec<(VertexId, u64)> {
    let mut best: BTreeMap<VertexId, u64> = BTreeMap::new();
    for &(v, d) in seeds {
        assert!(
            (v as usize) < n_total,
            "seed vertex {v} out of range (n = {n_total})"
        );
        let e = best.entry(v).or_insert(d);
        *e = (*e).min(d);
    }
    best.into_iter().collect()
}

/// Public face of the seed canonicalization every query runs internally:
/// validate against `n_total`, drop duplicate vertices keeping each one's
/// smallest seed distance, and return the list sorted by vertex id. Two
/// seed lists with the same canonical form provably produce the same
/// distances, which is exactly the equivalence a serving-layer result
/// cache needs for its keys.
pub fn canonical_seeds(seeds: &[(VertexId, u64)], n_total: usize) -> Vec<(VertexId, u64)> {
    dedup_seeds(seeds, n_total)
}

/// Resolve the §III-E intra-node balancing threshold π from the configured
/// mode and the graph's average degree. `Auto` rounds the average degree to
/// nearest — truncating division used to resolve π from `avg_deg = 0` (so
/// π = 64 regardless of shape) on any graph whose true average degree had a
/// fractional part, and systematically underestimated π elsewhere.
pub fn resolved_pi(balance: IntraBalance, m_directed: u64, n_vertices: u64) -> u64 {
    match balance {
        IntraBalance::Off => u64::MAX,
        IntraBalance::Threshold(t) => t as u64,
        IntraBalance::Auto => {
            let avg_deg = (m_directed + n_vertices / 2)
                .checked_div(n_vertices)
                .unwrap_or(0);
            (4 * avg_deg).max(64)
        }
    }
}

mod decide;
mod epoch;
mod invariants;
mod kernels;
/// The backend-neutral telemetry recorder ([`record::Recorder`]), the
/// simulator's cost recorder and the per-rank trace merge of the threaded
/// backend.
pub mod record;
/// The real-thread backend: the epoch loop on one OS thread per rank.
pub mod threaded;

#[cfg(test)]
mod tests;
