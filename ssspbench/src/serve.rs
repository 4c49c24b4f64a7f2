//! The serving probe of a traced run: an `SsspServer` over the workload's
//! resident graph takes one burst of the serving mix, with rebuilds in
//! between, and every answer is checked against radix Dijkstra.
//!
//! Serving is measured here, layer by layer, rather than as a workload of
//! its own: on the 2-core development host an open-loop serving workload
//! did not repeat within the benchmark's bounds (see `README.md`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sssp_dist::DistGraph;
use sssp_graph::{Csr, VertexId};

use crate::adapter::{self, Answer, Query, Server};
use crate::layers::{self, Oracle};
use crate::stats::{median, quantile, ratio, Rng};
use crate::Run;

const HOT_ROOTS: usize = 8;
const MAX_INFLIGHT: usize = 2;
const CACHE_CAPACITY: usize = 32;
const PROBE_QUERIES: usize = 12;
/// Positions in the burst before which the server swaps its graph.
const REBUILD_BEFORE: [usize; 2] = [4, 8];
/// How often the prober looks for finished queries.
const POLL: Duration = Duration::from_millis(1);

/// `count` queries of the serving mix: in every block of ten, six
/// single-source, three point-to-point to a two-hop neighbour and one
/// three-seed multi-source, in random order. Half of the roots in each
/// block come from the hot set, so repeats can hit the cache.
fn gen_queries(
    g: &Csr,
    rng: &mut Rng,
    hot: &[VertexId],
    pool: &[VertexId],
    count: usize,
) -> Vec<Query> {
    let pick = |rng: &mut Rng, from_hot: bool| {
        if from_hot {
            hot[rng.below(hot.len() as u64) as usize]
        } else {
            layers::pick_roots(pool, rng, 1)[0]
        }
    };
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut kinds = [0u8, 0, 0, 0, 0, 0, 1, 1, 1, 2];
        let mut from_hot = [
            true, true, true, true, true, false, false, false, false, false,
        ];
        rng.shuffle(&mut kinds);
        rng.shuffle(&mut from_hot);
        for (kind, h) in kinds.into_iter().zip(from_hot) {
            let root = pick(rng, h);
            out.push(match kind {
                0 => Query::Single(root),
                1 => {
                    let hop = adapter::neighbour(g, root, rng.below(64) as usize).unwrap_or(root);
                    let target = adapter::neighbour(g, hop, rng.below(64) as usize).unwrap_or(hop);
                    Query::PointToPoint(root, target)
                }
                _ => {
                    let more = (0..2).map(|_| {
                        let h = rng.unit() < 0.5;
                        pick(rng, h)
                    });
                    Query::Multi(std::iter::once(root).chain(more).collect())
                }
            });
        }
    }
    out.truncate(count);
    out
}

/// A digest of a distance field, so that answers need not stay in memory
/// until they are checked.
fn digest(field: &[u64]) -> u64 {
    field.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &d| {
        (h ^ d).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A finished query: its digest or point-to-point distance, or the error.
struct Done {
    query: Query,
    answer: Result<u64, String>,
    epochs: u64,
    generation: u64,
}

/// Submit `queries` at once with the rebuilds in between, then poll until
/// every answer is in. Returns the answers and how many queries were still
/// outstanding when the last one was submitted.
fn burst(
    run: &mut Run,
    server: &Server,
    dg: &Arc<DistGraph>,
    queries: &[Query],
) -> (Vec<Done>, usize) {
    let start = Instant::now();
    let mut done = Vec::new();
    let mut outstanding = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        if REBUILD_BEFORE.contains(&i) {
            server.rebuild(&mut run.t, dg);
        }
        match server.submit(&mut run.t, q, i as u64) {
            Ok(ticket) => outstanding.push((i, ticket)),
            Err(e) => done.push(Done {
                query: q.clone(),
                answer: Err(e),
                epochs: 0,
                generation: 0,
            }),
        }
    }
    let backlog = outstanding.len();
    while !outstanding.is_empty() {
        std::thread::sleep(POLL);
        outstanding.retain(|&(i, ticket)| {
            let Some(served) = server.poll(ticket) else {
                return true;
            };
            run.t.record("serve.query", i as u64, start, Instant::now());
            done.push(Done {
                query: queries[i].clone(),
                answer: served.answer.map(|a| match a {
                    Answer::Field(f) => digest(&f),
                    Answer::Target(d) => d,
                }),
                epochs: served.epochs,
                generation: served.generation,
            });
            false
        });
    }
    (done, backlog)
}

/// Check every answer against radix Dijkstra (every generation serves the
/// same graph here): multi-seed fields against the elementwise minimum of
/// the per-seed fields, point-to-point against the target's entry.
fn check_answers(run: &mut Run, g: &Csr, done: &[Done]) {
    let mut oracle = Oracle::default();
    for d in done {
        let answer = match &d.answer {
            Ok(a) => *a,
            Err(e) => {
                run.check(false, || format!("{:?} failed: {e}", d.query));
                continue;
            }
        };
        let ok = match &d.query {
            Query::Single(r) => digest(oracle.field(run, 0, g, *r)) == answer,
            Query::PointToPoint(r, t) => oracle.field(run, 0, g, *r)[*t as usize] == answer,
            Query::Multi(seeds) => {
                let mut min = oracle.field(run, 0, g, seeds[0]).to_vec();
                for &s in &seeds[1..] {
                    for (m, &x) in min.iter_mut().zip(oracle.field(run, 0, g, s)) {
                        *m = (*m).min(x);
                    }
                }
                digest(&min) == answer
            }
        };
        run.check(ok, || {
            format!("{:?} on generation {}", d.query, d.generation)
        });
    }
}

/// Run the serving probe on `dg` and record the `serve.*` layer metrics.
pub fn probe(run: &mut Run, g: &Csr, dg: &Arc<DistGraph>, seed: u64) {
    let mut rng = Rng::new(seed, 0x5E7E);
    let pool = layers::giant_component(g);
    let hot = layers::pick_roots(&pool, &mut rng, HOT_ROOTS);
    let queries = gen_queries(g, &mut rng, &hot, &pool, PROBE_QUERIES);
    let server = adapter::start_server(&mut run.t, dg, MAX_INFLIGHT, CACHE_CAPACITY);
    let (done, backlog) = burst(run, &server, dg, &queries);
    check_answers(run, g, &done);

    let (hits, lookups) = server.cache_stats();
    run.set("serve.cache_hit_ratio", ratio(hits as f64, lookups as f64));
    run.set("serve.cache_lookups", lookups as f64);
    run.set(
        "serve.submit_us.p99",
        quantile(&run.t.secs("serve.submit"), 0.99) * 1e6,
    );
    run.set(
        "serve.rebuild_us.p50",
        median(&run.t.secs("serve.rebuild")) * 1e6,
    );
    let epochs = |single: bool| {
        let e: Vec<f64> = done
            .iter()
            .filter(|d| d.epochs > 0)
            .filter(|d| match d.query {
                Query::Single(_) => single,
                Query::PointToPoint(..) => !single,
                Query::Multi(_) => false,
            })
            .map(|d| d.epochs as f64)
            .collect();
        ratio(e.iter().sum(), e.len() as f64)
    };
    run.set("serve.epochs_per_query.ss", epochs(true));
    run.set("serve.epochs_per_query.p2p", epochs(false));
    run.set("serve.peak_inflight", server.peak_inflight() as f64);
    run.set("serve.backlog", backlog as f64);
    let (panicked, timed_out) = server.failure_stats();
    run.note("serve_panicked", panicked);
    run.note("serve_timed_out", timed_out);
}
