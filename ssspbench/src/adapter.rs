//! Every call the benchmark makes into the program goes through this
//! module, each wrapped in a span named after the layer it enters. When
//! the program's entry points change, this is the one file to follow.

use std::sync::Arc;
use std::time::Instant;

use sssp_comm::cost::MachineModel;
use sssp_core::config::SsspConfig;
use sssp_core::{engine, seq, EngineScratch, RunTrace};
use sssp_dist::DistGraph;
use sssp_graph::rmat::{RmatGenerator, RmatParams};
use sssp_graph::{Csr, CsrBuilder, EdgeList, VertexId};
use sssp_serve::{QueryOutput, QuerySpec, ServeConfig, SsspServer};

use crate::trace::Tracer;

pub use sssp_serve::Ticket;

/// Graph 500 edge factor and weight range, as in the paper's R-MAT runs.
const EDGE_FACTOR: usize = 16;
const W_MAX: u32 = 255;

/// The paper's two R-MAT families.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// Graph 500 BFS parameters: skewed, hub-heavy.
    Rmat1,
    /// Proposed SSSP parameters: flatter degree profile.
    Rmat2,
}

/// The algorithm presets the workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Del25,
    Prune25,
    Opt25,
}

impl Algo {
    pub fn name(self) -> &'static str {
        match self {
            Algo::Del25 => "Del-25",
            Algo::Prune25 => "Prune-25",
            Algo::Opt25 => "OPT-25",
        }
    }

    fn config(self) -> SsspConfig {
        match self {
            Algo::Del25 => SsspConfig::del(25),
            Algo::Prune25 => SsspConfig::prune(25),
            Algo::Opt25 => SsspConfig::opt(25),
        }
    }
}

fn model() -> MachineModel {
    MachineModel::bgq_like()
}

/// R-MAT edge generation (`graph` layer).
pub fn rmat(t: &mut Tracer, family: Family, scale: u32, seed: u64, request: u64) -> EdgeList {
    let params = match family {
        Family::Rmat1 => RmatParams::RMAT1,
        Family::Rmat2 => RmatParams::RMAT2,
    };
    t.span("graph.rmat", request, || {
        RmatGenerator::new(params, scale, EDGE_FACTOR)
            .seed(seed)
            .generate_weighted(W_MAX)
    })
}

/// CSR construction (`graph` layer).
pub fn csr(t: &mut Tracer, el: &EdgeList, request: u64) -> Csr {
    t.span("graph.csr", request, || CsrBuilder::new().build(el))
}

/// Partition and per-rank CSR (`dist` layer).
pub fn dist_build(
    t: &mut Tracer,
    g: &Csr,
    ranks: usize,
    threads: usize,
    request: u64,
) -> Arc<DistGraph> {
    t.span("dist.build", request, || {
        Arc::new(DistGraph::build(g, ranks, threads))
    })
}

/// Max ÷ mean of the per-rank directed edge counts.
pub fn edge_imbalance(dg: &DistGraph) -> f64 {
    let per_rank: Vec<f64> = dg
        .locals
        .iter()
        .map(|l| l.num_directed_edges() as f64)
        .collect();
    let mean = per_rank.iter().sum::<f64>() / per_rank.len() as f64;
    per_rank.iter().fold(0.0f64, |a, &b| a.max(b)) / mean.max(f64::MIN_POSITIVE)
}

/// Directed edges of the distributed graph.
pub fn directed_edges(dg: &DistGraph) -> u64 {
    dg.m_directed
}

/// Sequential radix-heap Dijkstra: the oracle and the COST denominator
/// (`seq` layer).
pub fn radix(t: &mut Tracer, g: &Csr, root: VertexId, request: u64) -> Vec<u64> {
    t.span("seq.radix", request, || seq::dijkstra_radix(g, root))
}

/// One-shot threaded Δ-stepping from `root` (`engine` layer).
pub fn threaded_sssp(
    t: &mut Tracer,
    dg: &Arc<DistGraph>,
    root: VertexId,
    algo: Algo,
    request: u64,
) -> Vec<u64> {
    let cfg = algo.config();
    t.span("engine.sssp", request, || {
        sssp_core::threaded_delta_stepping(dg, root, &cfg, &model()).distances
    })
}

/// What a traced threaded run reports: wall time, the per-phase timings
/// and the counters of its merged trace.
pub struct EngineTrace {
    pub wall_s: f64,
    pub short_s: f64,
    pub long_push_s: f64,
    pub long_pull_s: f64,
    pub bf_s: f64,
    pub epochs: u64,
    pub supersteps: u64,
    pub relaxations: u64,
    pub remote_msgs: u64,
    pub remote_bytes: u64,
    pub coalesced_msgs: u64,
    pub relax_msgs: u64,
    pub max_step_send_bytes: u64,
}

fn trace_counts(trace: &RunTrace, wall_s: f64) -> EngineTrace {
    let ns = |v: u64| v as f64 / 1e9;
    EngineTrace {
        wall_s,
        short_s: ns(trace.timings.short_ns),
        long_push_s: ns(trace.timings.long_push_ns),
        long_pull_s: ns(trace.timings.long_pull_ns),
        bf_s: ns(trace.timings.bf_ns),
        epochs: trace.buckets.len() as u64 + u64::from(trace.tail.is_some()),
        supersteps: trace.supersteps,
        relaxations: trace.phases.iter().map(|p| p.relaxations).sum(),
        remote_msgs: trace.remote_msgs,
        remote_bytes: trace.remote_bytes,
        coalesced_msgs: trace.coalesced_msgs,
        relax_msgs: trace.local_msgs + trace.remote_msgs,
        max_step_send_bytes: trace.max_step_send_bytes,
    }
}

/// Threaded Δ-stepping with the engine's own run trace (`engine` layer).
pub fn threaded_traced(
    t: &mut Tracer,
    dg: &Arc<DistGraph>,
    root: VertexId,
    request: u64,
) -> (Vec<u64>, EngineTrace) {
    let cfg = Algo::Opt25.config();
    t.span("engine.sssp_traced", request, || {
        let t0 = Instant::now();
        let (out, trace) = sssp_core::threaded_delta_stepping_traced(dg, root, &cfg, &model());
        let wall_s = t0.elapsed().as_secs_f64();
        (out.distances, trace_counts(&trace, wall_s))
    })
}

/// Reusable per-rank engine state for repeated queries on one graph.
pub struct Scratch(EngineScratch);

impl Scratch {
    pub fn new(dg: &DistGraph) -> Scratch {
        Scratch(EngineScratch::new(dg.num_ranks()))
    }
}

/// One query on a warm scratch, no server (`engine` layer). Returns the
/// distances and the epochs the query ran.
pub fn query(
    t: &mut Tracer,
    name: &'static str,
    dg: &Arc<DistGraph>,
    seeds: &[VertexId],
    target: Option<VertexId>,
    scratch: &mut Scratch,
) -> (Vec<u64>, u64) {
    let cfg = Algo::Opt25.config();
    let seeds: Vec<(VertexId, u64)> = seeds.iter().map(|&s| (s, 0)).collect();
    t.span(name, 0, || {
        let out =
            sssp_core::threaded_sssp_query(dg, &seeds, target, &cfg, &model(), &mut scratch.0);
        (out.distances, out.epochs)
    })
}

/// What a simulated run reports.
pub struct SimRun {
    pub distances: Vec<u64>,
    pub supersteps: u64,
    pub msgs: u64,
    pub simulated_s: f64,
    pub gteps: f64,
}

/// Simulated BSP engine with the α–β–γ ledger (`sim` layer). `root =
/// None` runs with no seeds: the engine's fixed cost alone.
pub fn simulated(
    t: &mut Tracer,
    dg: &DistGraph,
    root: Option<VertexId>,
    algo: Algo,
    request: u64,
) -> SimRun {
    let cfg = algo.config();
    let seeds: Vec<(VertexId, u64)> = root.map(|r| (r, 0)).into_iter().collect();
    let out = t.span("sim.run", request, || {
        engine::run_sssp_seeded(dg, &seeds, &cfg, &model())
    });
    SimRun {
        supersteps: out.stats.supersteps(),
        msgs: out.stats.comm.total_msgs(),
        simulated_s: out.stats.ledger.total_s(),
        gteps: out.stats.gteps(dg.m_input_undirected),
        distances: out.distances,
    }
}

/// A query as the benchmark generates it; the adapter turns it into the
/// server's spec type.
#[derive(Debug, Clone)]
pub enum Query {
    Single(VertexId),
    PointToPoint(VertexId, VertexId),
    Multi(Vec<VertexId>),
}

/// What the benchmark keeps of a served answer.
pub enum Answer {
    Field(Arc<Vec<u64>>),
    Target(u64),
}

/// A finished served query.
pub struct Served {
    pub answer: Result<Answer, String>,
    pub epochs: u64,
    pub generation: u64,
}

/// `serve` layer: one server over a resident graph.
pub struct Server(SsspServer);

/// Server start (`serve` layer): `max_inflight` workers, an LRU distance
/// cache of `cache` entries, OPT-25.
pub fn start_server(
    t: &mut Tracer,
    dg: &Arc<DistGraph>,
    max_inflight: usize,
    cache: usize,
) -> Server {
    t.span("serve.start", 0, || {
        Server(SsspServer::new(
            Arc::clone(dg),
            Algo::Opt25.config(),
            model(),
            ServeConfig {
                max_inflight,
                cache_capacity: cache,
                deadline: None,
            },
        ))
    })
}

impl Server {
    /// Enqueue a query.
    pub fn submit(&self, t: &mut Tracer, q: &Query, request: u64) -> Result<Ticket, String> {
        let spec = match q {
            Query::Single(root) => QuerySpec::SingleSource { root: *root },
            Query::PointToPoint(root, target) => QuerySpec::PointToPoint {
                root: *root,
                target: *target,
            },
            Query::Multi(seeds) => QuerySpec::MultiSeed {
                seeds: seeds.iter().map(|&s| (s, 0)).collect(),
            },
        };
        t.span("serve.submit", request, || self.0.submit(spec))
            .map_err(|e| e.to_string())
    }

    /// Take a finished query's outcome, if it has finished.
    pub fn poll(&self, ticket: Ticket) -> Option<Served> {
        let outcome = self.0.poll(ticket)?;
        Some(match outcome {
            Ok(res) => Served {
                answer: match res.output {
                    QueryOutput::Distances(d) => Ok(Answer::Field(d)),
                    QueryOutput::TargetDistance(d) => Ok(Answer::Target(d)),
                    _ => Err("unexpected output kind".to_string()),
                },
                epochs: res.epochs,
                generation: res.generation,
            },
            Err(e) => Served {
                answer: Err(e.to_string()),
                epochs: 0,
                generation: 0,
            },
        })
    }

    /// Swap the resident graph (`serve` layer).
    pub fn rebuild(&self, t: &mut Tracer, dg: &Arc<DistGraph>) {
        t.span("serve.rebuild", 0, || self.0.rebuild(Arc::clone(dg)));
    }

    /// `(hits, lookups)` of the distance cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        let (hits, misses) = self.0.cache_stats();
        (hits, hits + misses)
    }

    pub fn peak_inflight(&self) -> usize {
        self.0.peak_inflight()
    }

    /// `(panicked, timed_out)` queries.
    pub fn failure_stats(&self) -> (u64, u64) {
        self.0.failure_stats()
    }
}

pub fn degree(g: &Csr, v: VertexId) -> usize {
    g.degree(v)
}

pub fn neighbours(g: &Csr, v: VertexId) -> &[VertexId] {
    g.row_slices(v).0
}

pub fn num_vertices(g: &Csr) -> usize {
    g.num_vertices()
}

/// The `i`-th neighbour of `v` (wrapping), for point-to-point targets.
pub fn neighbour(g: &Csr, v: VertexId, i: usize) -> Option<VertexId> {
    let targets = neighbours(g, v);
    (!targets.is_empty()).then(|| targets[i % targets.len()])
}
