//! Pieces every workload shares: the radix-Dijkstra oracle, the set-up
//! layer metrics, and the layer probes a traced run adds so that every
//! layer is measured on every workload's own graph.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sssp_dist::DistGraph;
use sssp_graph::{Csr, VertexId};

use crate::adapter::{self, Algo};
use crate::stats::{self, median, ratio, Rng};
use crate::Run;

/// Rank counts of the simulator sweep (fig. 10(a)).
pub const SWEEP_RANKS: [usize; 5] = [2, 4, 8, 16, 32];

/// Per-layer metric name of the simulator's ms per root at `p` ranks.
pub fn sim_ms_name(p: usize) -> &'static str {
    match p {
        2 => "sim.ms_per_root.p2",
        4 => "sim.ms_per_root.p4",
        8 => "sim.ms_per_root.p8",
        16 => "sim.ms_per_root.p16",
        _ => "sim.ms_per_root.p32",
    }
}

/// Radix-Dijkstra fields by `(graph, root)`, computed on first use,
/// outside any timed request. Each computation is timed in `radix_ms`.
#[derive(Default)]
pub struct Oracle {
    fields: HashMap<(usize, VertexId), Vec<u64>>,
    pub radix_ms: Vec<f64>,
}

impl Oracle {
    pub fn field(&mut self, run: &mut Run, graph: usize, g: &Csr, root: VertexId) -> &[u64] {
        let radix_ms = &mut self.radix_ms;
        self.fields.entry((graph, root)).or_insert_with(|| {
            let t0 = Instant::now();
            let d = adapter::radix(&mut run.t, g, root, 0);
            radix_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            d
        })
    }
}

/// The component of the highest-degree vertex, by breadth-first search:
/// the giant component of an R-MAT graph. Roots are drawn from it, since
/// R-MAT leaves many vertices in tiny components where a root measures
/// next to nothing, and a handful of those moves a median.
pub fn giant_component(g: &Csr) -> Vec<VertexId> {
    let n = adapter::num_vertices(g);
    let hub = (0..n as VertexId)
        .max_by_key(|&v| adapter::degree(g, v))
        .expect("graph has vertices");
    let mut seen = vec![false; n];
    seen[hub as usize] = true;
    let mut order = vec![hub];
    let mut next = 0;
    while next < order.len() {
        let u = order[next];
        next += 1;
        for &v in adapter::neighbours(g, u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                order.push(v);
            }
        }
    }
    order
}

/// `count` distinct vertices drawn from `pool`.
pub fn pick_roots(pool: &[VertexId], rng: &mut Rng, count: usize) -> Vec<VertexId> {
    assert!(pool.len() >= count, "not enough candidate roots");
    let mut roots = Vec::with_capacity(count);
    while roots.len() < count {
        let v = pool[rng.below(pool.len() as u64) as usize];
        if !roots.contains(&v) {
            roots.push(v);
        }
    }
    roots
}

/// Time `reps` set-ups with `setup`, keep the last one's product, and
/// record `setup_s` (median) plus the set-up layers from their spans.
pub fn timed_setup<T>(run: &mut Run, reps: usize, mut setup: impl FnMut(&mut Run, u64) -> T) -> T {
    let mut walls = Vec::new();
    let mut kept = None;
    for rep in 0..reps {
        drop(kept.take()); // free the previous set-up before building the next
        let t0 = Instant::now();
        kept = Some(setup(run, rep as u64));
        walls.push(t0.elapsed().as_secs_f64());
    }
    run.set("setup_s", median(&walls));
    run.note("setup_reps", reps);
    for (span, metric) in [
        ("graph.rmat", "graph.rmat_s"),
        ("graph.csr", "graph.csr_s"),
        ("dist.build", "dist.build_s"),
    ] {
        let mut per_rep = vec![0.0; reps];
        for s in run.t.spans().iter().filter(|s| s.name == span) {
            per_rep[s.request as usize] += s.secs();
        }
        run.set(metric, median(&per_rep));
    }
    kept.expect("at least one set-up")
}

/// The quieter half of intervals with `(steal, total)` host ticks: the
/// wall-time metrics are taken over those, so that they describe the
/// program rather than its neighbours. Records the steal of both halves.
pub fn quiet(run: &mut Run, ticks: &[(u64, u64)]) -> Vec<bool> {
    let (quiet, quiet_steal, other_steal) = stats::quieter_half(ticks);
    run.note("steal_quiet_half", format!("{quiet_steal:.3}"));
    run.note("steal_other_half", format!("{other_steal:.3}"));
    quiet
}

/// The traced run's own overhead. A traced run alternates its requests
/// between recording and not; `samples` are `(request key, traced, wall)`.
/// Per key the traced median is divided by the untraced one, and the
/// median of those ratios, minus one, is the cost of tracing.
pub fn set_overhead(run: &mut Run, samples: &[(u64, bool, f64)]) {
    let mut by_key: HashMap<u64, (Vec<f64>, Vec<f64>)> = HashMap::new();
    for &(key, traced, v) in samples {
        let e = by_key.entry(key).or_default();
        if traced { &mut e.0 } else { &mut e.1 }.push(v);
    }
    let ratios: Vec<f64> = by_key
        .values()
        .filter(|(t, u)| !t.is_empty() && !u.is_empty())
        .map(|(t, u)| median(t) / median(u))
        .collect();
    run.set("trace_overhead_frac", median(&ratios) - 1.0);
}

/// Engine probe: fixed cost of an empty query, single-source and
/// point-to-point queries on a warm scratch (no server), and the phase
/// split and counters of traced one-shot runs.
pub fn engine_probe(
    run: &mut Run,
    oracle: &mut Oracle,
    graph: usize,
    g: &Csr,
    dg: &Arc<DistGraph>,
    roots: &[VertexId],
    pairs: &[(VertexId, VertexId)],
) {
    let mut scratch = adapter::Scratch::new(dg);
    adapter::query(&mut run.t, "engine.warm_query", dg, &[], None, &mut scratch);
    for &root in roots {
        let (d, _) = adapter::query(
            &mut run.t,
            "engine.ss_query",
            dg,
            &[root],
            None,
            &mut scratch,
        );
        let ok = d == oracle.field(run, graph, g, root);
        run.check(ok, || format!("engine ss query from {root}"));
    }
    for _ in 0..20 {
        adapter::query(
            &mut run.t,
            "engine.empty_query",
            dg,
            &[],
            None,
            &mut scratch,
        );
    }
    for &(root, target) in pairs {
        let (d, _) = adapter::query(
            &mut run.t,
            "engine.p2p_query",
            dg,
            &[root],
            Some(target),
            &mut scratch,
        );
        let ok = d[target as usize] == oracle.field(run, graph, g, root)[target as usize];
        run.check(ok, || format!("engine p2p query {root} -> {target}"));
    }
    let us = |v: Vec<f64>| median(&v) * 1e6;
    let ms = |v: Vec<f64>| median(&v) * 1e3;
    run.set(
        "engine.empty_query_us",
        us(run.t.secs("engine.empty_query")),
    );
    run.set("engine.ss_query_ms.p50", ms(run.t.secs("engine.ss_query")));
    run.set(
        "engine.p2p_query_ms.p50",
        ms(run.t.secs("engine.p2p_query")),
    );

    let mut traces = Vec::new();
    for &root in roots.iter().take(2) {
        let (d, tr) = adapter::threaded_traced(&mut run.t, dg, root, 0);
        let ok = d == oracle.field(run, graph, g, root);
        run.check(ok, || format!("traced engine run from {root}"));
        traces.push(tr);
    }
    let med = |f: &dyn Fn(&adapter::EngineTrace) -> f64| {
        median(&traces.iter().map(f).collect::<Vec<_>>())
    };
    run.set("engine.short_ms", med(&|t| t.short_s * 1e3));
    run.set("engine.long_push_ms", med(&|t| t.long_push_s * 1e3));
    run.set("engine.long_pull_ms", med(&|t| t.long_pull_s * 1e3));
    run.set("engine.bf_ms", med(&|t| t.bf_s * 1e3));
    run.set(
        "engine.outside_phases_ms",
        med(&|t| (t.wall_s - t.short_s - t.long_push_s - t.long_pull_s - t.bf_s) * 1e3),
    );
    let m = adapter::directed_edges(dg) as f64;
    run.set("engine.epochs", med(&|t| t.epochs as f64));
    run.set("engine.supersteps", med(&|t| t.supersteps as f64));
    run.set("engine.relax_per_edge", med(&|t| t.relaxations as f64 / m));
    run.set("comm.remote_msgs", med(&|t| t.remote_msgs as f64));
    run.set("comm.remote_bytes", med(&|t| t.remote_bytes as f64));
    run.set(
        "comm.coalesced_frac",
        med(&|t| {
            ratio(
                t.coalesced_msgs as f64,
                (t.coalesced_msgs + t.relax_msgs) as f64,
            )
        }),
    );
    run.set(
        "comm.max_step_send_bytes",
        med(&|t| t.max_step_send_bytes as f64),
    );
    run.set("dist.edge_imbalance", adapter::edge_imbalance(dg));
}

/// Simulated OPT-25 runs from `roots`, each checked against the oracle.
/// Returns `(wall ms, run)` per root.
pub fn sim_runs(
    run: &mut Run,
    oracle: &mut Oracle,
    graph: usize,
    g: &Csr,
    dg: &DistGraph,
    roots: &[VertexId],
    algo: Algo,
) -> Vec<(f64, adapter::SimRun)> {
    roots
        .iter()
        .map(|&root| {
            let t0 = Instant::now();
            let out = adapter::simulated(&mut run.t, dg, Some(root), algo, 0);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let ok = out.distances == oracle.field(run, graph, g, root);
            run.check(ok, || format!("simulated {} from {root}", algo.name()));
            (ms, out)
        })
        .collect()
}

/// Record the simulator's counters at the sweep's largest rank count and
/// `sim_gteps`, from OPT-25 runs there.
pub fn set_sim_top(run: &mut Run, runs: &[(f64, adapter::SimRun)]) {
    let mean = |f: &dyn Fn(&adapter::SimRun) -> f64| {
        runs.iter().map(|(_, r)| f(r)).sum::<f64>() / runs.len() as f64
    };
    run.set("sim_gteps", mean(&|r| r.gteps));
    run.set("sim.supersteps", mean(&|r| r.supersteps as f64));
    run.set("sim.msgs", mean(&|r| r.msgs as f64));
    run.set("sim.simulated_s", mean(&|r| r.simulated_s));
}

/// Median wall of an empty-seed simulated run: the simulator's fixed cost.
pub fn set_sim_empty(run: &mut Run, dg: &DistGraph) {
    let mut us = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        adapter::simulated(&mut run.t, dg, None, Algo::Opt25, 0);
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    run.set("sim.empty_run_us", median(&us));
}

/// Simulator on a threaded workload's graph: `sim_gteps` and the top
/// counters from OPT-25 at 32 ranks; in a traced run also the ms per root
/// at every sweep rank count (strong scaling of this one graph), the cost
/// per superstep and the empty-run cost.
pub fn sim_probe(
    run: &mut Run,
    oracle: &mut Oracle,
    graph: usize,
    g: &Csr,
    threads: usize,
    roots: &[VertexId],
) {
    let ranks: &[usize] = if run.t.enabled() { &SWEEP_RANKS } else { &[32] };
    let (mut wall_ms, mut supersteps) = (0.0, 0u64);
    for &p in ranks {
        let dg = adapter::dist_build(&mut run.t, g, p, threads, u64::MAX);
        // All roots where `sim_gteps` is taken, two elsewhere.
        let roots = if p == 32 { roots } else { &roots[..2] };
        let runs = sim_runs(run, oracle, graph, g, &dg, roots, Algo::Opt25);
        wall_ms += runs.iter().map(|(ms, _)| ms).sum::<f64>();
        supersteps += runs.iter().map(|(_, r)| r.supersteps).sum::<u64>();
        run.set(
            sim_ms_name(p),
            median(&runs.iter().map(|(ms, _)| *ms).collect::<Vec<_>>()),
        );
        if p == 32 {
            set_sim_top(run, &runs);
            if run.t.enabled() {
                set_sim_empty(run, &dg);
            }
        }
    }
    run.set(
        "sim.us_per_superstep",
        ratio(wall_ms * 1e3, supersteps as f64),
    );
}
