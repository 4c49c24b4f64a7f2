//! `oneshot-rmat2-s18`: one-shot full SSSP on RMAT-2 scale 18 (4.1M
//! undirected edges), 2 ranks × 4 logical threads, OPT-25. Each root runs
//! the threaded engine and then sequential radix Dijkstra.
//!
//! Why: per-edge kernel and exchange work dominate and spawn and queue
//! overheads are negligible; this is where the per-edge gap to the
//! sequential baseline shows.

use sssp_graph::VertexId;

use crate::adapter::{self, Algo, Family};
use crate::layers::{self, Oracle};
use crate::stats::{median, quantile, ratio, Rng, StealWindows};
use crate::{Args, Run};

/// Set-ups per run; `setup_s` is their median. Cheaper set-ups are
/// repeated more often, so that every median is equally steady.
const SETUP_REPS: usize = 3;
const SCALE: u32 = 18;
const RANKS: usize = 2;
const THREADS: usize = 4;
/// Roots of the simulated OPT-25 runs behind `sim_gteps`.
const SIM_ROOTS: usize = 4;

pub fn run(args: &Args, run: &mut Run) {
    let (g, dg) = layers::timed_setup(run, SETUP_REPS, |run, rep| {
        let el = adapter::rmat(&mut run.t, Family::Rmat2, SCALE, 1, rep);
        let g = adapter::csr(&mut run.t, &el, rep);
        drop(el);
        let dg = adapter::dist_build(&mut run.t, &g, RANKS, THREADS, rep);
        (g, dg)
    });
    let pool = layers::giant_component(&g);
    let probe_roots = layers::pick_roots(&pool, &mut Rng::new(args.seed, 0x9B0), SIM_ROOTS);
    // Every request draws a fresh root, so that a run averages over many;
    // a traced run keeps each root for two requests, one recorded and one
    // not.
    let mut rng = Rng::new(args.seed, 0x0E5);

    // First touch of the engine's pages, outside the measured window.
    adapter::threaded_sssp(&mut run.t, &dg, probe_roots[0], Algo::Opt25, 0);

    // Per request: (steal window, engine ms, radix ms).
    let mut samples: Vec<(usize, f64, f64)> = Vec::new();
    let mut overhead = Vec::new();
    let mut steal = StealWindows::start();
    let window = std::time::Instant::now();
    let mut i = 0usize;
    let mut root = 0;
    while i == 0 || window.elapsed().as_secs_f64() < args.seconds {
        if !run.t.enabled() || i.is_multiple_of(2) {
            root = layers::pick_roots(&pool, &mut rng, 1)[0];
        }
        let w = steal.window();
        let is_traced = run.t.enabled() && i.is_multiple_of(2);
        run.t.set_paused(!is_traced);
        let span = run.t.begin("oneshot.root", i as u64);
        let t0 = std::time::Instant::now();
        let d = adapter::threaded_sssp(&mut run.t, &dg, root, Algo::Opt25, i as u64);
        let t1 = std::time::Instant::now();
        let o = adapter::radix(&mut run.t, &g, root, i as u64);
        let t2 = std::time::Instant::now();
        run.t.end(span);
        run.t.set_paused(false);
        let e = (t1 - t0).as_secs_f64() * 1e3;
        samples.push((w, e, (t2 - t1).as_secs_f64() * 1e3));
        overhead.push((u64::from(root), is_traced, e));
        run.check(d == o, || format!("threaded SSSP from {root}"));
        i += 1;
    }
    run.set("peak_heap_mb", crate::heap::peak_mb());
    run.note("peak_rss_mb", format!("{:.1}", crate::stats::peak_rss_mb()));
    let quiet = layers::quiet(run, &steal.finish());
    let kept: Vec<&(usize, f64, f64)> = samples.iter().filter(|s| quiet[s.0]).collect();
    let engine_ms: Vec<f64> = kept.iter().map(|s| s.1).collect();
    let ratios: Vec<f64> = kept.iter().map(|s| s.1 / s.2).collect();
    let radix_ms: Vec<f64> = samples.iter().map(|s| s.2).collect();
    run.set("latency_ms.p50", median(&engine_ms));
    run.set("latency_ms.tail", quantile(&engine_ms, 0.75));
    run.set(
        "throughput",
        ratio(engine_ms.len() as f64, engine_ms.iter().sum::<f64>() / 1e3),
    );
    run.set("cost_ratio", median(&ratios));
    run.set("seq.radix_ms.p50", median(&radix_ms));
    run.note(
        "latency_samples",
        format!("{} of {}", engine_ms.len(), samples.len()),
    );
    run.note("latency_tail_percentile", "p75");
    run.note("ranks_x_threads", format!("{RANKS}x{THREADS}"));
    if run.t.enabled() {
        layers::set_overhead(run, &overhead);
    }

    let mut oracle = Oracle::default();
    if run.t.enabled() {
        let pairs: Vec<(VertexId, VertexId)> = probe_roots[..3]
            .iter()
            .map(|&r| {
                (
                    r,
                    adapter::neighbour(&g, r, args.seed as usize).unwrap_or(r),
                )
            })
            .collect();
        layers::engine_probe(run, &mut oracle, 0, &g, &dg, &probe_roots[..3], &pairs);
        crate::serve::probe(run, &g, &dg, args.seed);
    }
    layers::sim_probe(run, &mut oracle, 0, &g, THREADS, &probe_roots);
}
