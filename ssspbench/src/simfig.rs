//! `simfig-rmat1-weak`: the figure path. The simulated backend runs the
//! fig. 10(a) weak-scaling sweep: RMAT-1 with 2^11 vertices per rank, 2
//! to 32 ranks of 64 logical threads, Del-25, Prune-25 and OPT-25.
//!
//! Why: it is the only workload that drives the simulator, its cost model
//! and the rayon shim, through many small supersteps on a hub-heavy graph
//! that stresses the push/pull decision and imbalance differently from
//! the one-shot workload.

use std::sync::Arc;
use std::time::Instant;

use sssp_dist::DistGraph;
use sssp_graph::{Csr, VertexId};

use crate::adapter::{self, Algo, Family};
use crate::layers::{self, Oracle, SWEEP_RANKS};
use crate::stats::{self, median, quantile, ratio, Rng};
use crate::{Args, Run};

/// Set-ups per run; `setup_s` is their median. Cheaper set-ups are
/// repeated more often, so that every median is equally steady.
const SETUP_REPS: usize = 5;
const SCALE_PER_RANK: u32 = 11;
const THREADS: usize = 64;
/// Roots per rank count in one sweep.
const ROOTS: usize = 4;
/// Roots of the OPT-25 runs at 32 ranks behind `sim_gteps`.
const SIM_ROOTS: usize = 24;
const ALGOS: [Algo; 3] = [Algo::Del25, Algo::Prune25, Algo::Opt25];

/// One point of the sweep.
struct Point {
    p: usize,
    g: Csr,
    dg: Arc<DistGraph>,
    /// Candidate roots: the giant component.
    pool: Vec<VertexId>,
}

pub fn run(args: &Args, run: &mut Run) {
    let graphs = layers::timed_setup(run, SETUP_REPS, |run, rep| {
        SWEEP_RANKS
            .iter()
            .map(|&p| {
                let scale = SCALE_PER_RANK + p.trailing_zeros();
                let el = adapter::rmat(&mut run.t, Family::Rmat1, scale, 1, rep);
                let g = adapter::csr(&mut run.t, &el, rep);
                let dg = adapter::dist_build(&mut run.t, &g, p, THREADS, rep);
                (p, g, dg)
            })
            .collect::<Vec<_>>()
    });
    let points: Vec<Point> = graphs
        .into_iter()
        .map(|(p, g, dg)| {
            let pool = layers::giant_component(&g);
            Point { p, g, dg, pool }
        })
        .collect();

    // One (rank count, algorithm, root) run is one request. Every sweep
    // draws fresh roots, so that a run averages over many roots of the
    // hub-heavy graphs; a traced run keeps each draw for two sweeps, one
    // recorded and one not.
    let mut rng = Rng::new(args.seed, 0xF16);
    // Per request: (sweep, wall ms, radix ms from the same root). Host steal is taken
    // per sweep, and the quieter half of the sweeps is kept whole, so that
    // every kept sample has the same mix of rank counts.
    let mut samples: Vec<(usize, f64, f64)> = Vec::new();
    let mut radix_ms = Vec::new();
    let mut supersteps = 0u64;
    let mut opt_ms: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let mut overhead = Vec::new();
    let mut sweep_ticks = Vec::new();
    let window = Instant::now();
    let mut sweep = 0usize;
    let mut drawn: Vec<(Vec<VertexId>, Vec<f64>)> = Vec::new();
    let mut oracle = Oracle::default();
    while sweep == 0 || window.elapsed().as_secs_f64() < args.seconds {
        if !run.t.enabled() || sweep.is_multiple_of(2) {
            // This sweep's roots and their oracle fields, outside the timed runs.
            oracle = Oracle::default();
            drawn = points
                .iter()
                .enumerate()
                .map(|(gi, pt)| {
                    let roots = layers::pick_roots(&pt.pool, &mut rng, ROOTS);
                    let ms = roots
                        .iter()
                        .map(|&r| {
                            oracle.field(run, gi, &pt.g, r);
                            *oracle.radix_ms.last().expect("just computed")
                        })
                        .collect();
                    (roots, ms)
                })
                .collect();
            radix_ms.extend(drawn.iter().flat_map(|(_, ms)| ms.iter().copied()));
        }
        let ticks = stats::cpu_ticks();
        let is_traced = run.t.enabled() && sweep.is_multiple_of(2);
        run.t.set_paused(!is_traced);
        let span = run.t.begin("simfig.sweep", sweep as u64);
        for (gi, pt) in points.iter().enumerate() {
            let (roots, root_radix_ms) = &drawn[gi];
            for algo in ALGOS {
                for (ri, &root) in roots.iter().enumerate() {
                    let request = (sweep * 10_000 + algo as usize * 1000 + gi * 100 + ri) as u64;
                    let t0 = Instant::now();
                    let out = adapter::simulated(&mut run.t, &pt.dg, Some(root), algo, request);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    let ok = out.distances == oracle.field(run, gi, &pt.g, root);
                    run.check(ok, || format!("{} p={} from {root}", algo.name(), pt.p));
                    samples.push((sweep, ms, root_radix_ms[ri]));
                    overhead.push((request % 10_000, is_traced, ms));
                    supersteps += out.supersteps;
                    if algo == Algo::Opt25 {
                        opt_ms[gi].push(ms);
                    }
                }
            }
        }
        run.t.end(span);
        run.t.set_paused(false);
        sweep_ticks.push(stats::ticks_since(ticks));
        sweep += 1;
    }
    run.set("peak_heap_mb", crate::heap::peak_mb());
    run.note("peak_rss_mb", format!("{:.1}", crate::stats::peak_rss_mb()));
    let quiet = layers::quiet(run, &sweep_ticks);
    let run_ms: Vec<f64> = samples.iter().filter(|s| quiet[s.0]).map(|s| s.1).collect();
    let radix_sum: f64 = samples.iter().filter(|s| quiet[s.0]).map(|s| s.2).sum();
    run.set("latency_ms.p50", median(&run_ms));
    run.set("latency_ms.tail", quantile(&run_ms, 0.95));
    run.set(
        "throughput",
        ratio(run_ms.len() as f64, run_ms.iter().sum::<f64>() / 1e3),
    );
    // A ratio of sums: radix on the small graphs takes a fraction of a
    // millisecond, and per-run ratios over it scatter too widely.
    run.set("cost_ratio", ratio(run_ms.iter().sum(), radix_sum));
    run.set("seq.radix_ms.p50", median(&radix_ms));
    run.note("sweeps", sweep);
    run.note(
        "latency_samples",
        format!("{} of {}", run_ms.len(), samples.len()),
    );
    run.note("latency_tail_percentile", "p95");
    run.note("ranks_x_threads", format!("2..32x{THREADS}"));

    // `sim_gteps` from a fixed draw of roots at 32 ranks, so that it stays
    // a pure function of the seed and the counted work.
    let last = points.last().expect("sweep has points");
    let gi = points.len() - 1;
    let top_roots = layers::pick_roots(&last.pool, &mut Rng::new(args.seed, 0x6E7), SIM_ROOTS);
    let mut oracle = Oracle::default();
    let top = layers::sim_runs(
        run,
        &mut oracle,
        gi,
        &last.g,
        &last.dg,
        &top_roots,
        Algo::Opt25,
    );
    layers::set_sim_top(run, &top);
    if !run.t.enabled() {
        return;
    }
    layers::set_overhead(run, &overhead);
    for (pt, ms) in points.iter().zip(&opt_ms) {
        run.set(layers::sim_ms_name(pt.p), median(ms));
    }
    let all_ms: f64 = samples.iter().map(|s| s.1).sum();
    run.set(
        "sim.us_per_superstep",
        ratio(all_ms * 1e3, supersteps as f64),
    );
    layers::set_sim_empty(run, &last.dg);
    let pairs: Vec<(VertexId, VertexId)> = top_roots
        .iter()
        .take(4)
        .map(|&r| {
            (
                r,
                adapter::neighbour(&last.g, r, args.seed as usize).unwrap_or(r),
            )
        })
        .collect();
    layers::engine_probe(
        run,
        &mut oracle,
        gi,
        &last.g,
        &last.dg,
        &top_roots[..4],
        &pairs,
    );
    crate::serve::probe(run, &last.g, &last.dg, args.seed);
}
