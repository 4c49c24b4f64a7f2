//! The simulator's cost model, pinned bit for bit.
//!
//! Every algorithm preset the figure and ablation binaries run (fig01–12,
//! ablation_ios / ablation_partition, secg, sech, graph500_kernel) is run
//! on small stand-ins of their graphs at 1, 2, 4 and 8 ranks. Each line of
//! `golden/cost_model_pin.txt` records one run: the simulated time and its
//! per-class ledger fields as f64 bit patterns, the superstep, message and
//! collective counts, the schedule fingerprint, and a hash of the
//! distances. The ledger is a pure function of the recorded run, so any
//! change to what the epoch loop records, or to how the cost model charges
//! it, shows up here as a changed bit pattern.
//!
//! `golden/kernel_pin.txt` pins the simulated BFS, connected components,
//! PageRank and Crauser kernels the same way, under both the plain and the
//! packetized machine model: a hash of each output vector, the round,
//! level or phase record, every traffic total, the per-superstep records
//! (per-rank maxima included), the collective count, the fingerprint and
//! the ledger's per-class f64 bit patterns.

use sssp_comm::cost::{MachineModel, TimeLedger};
use sssp_comm::stats::CommStats;
use sssp_core::bfs::{run_bfs, BfsDirection};
use sssp_core::cc::run_cc;
use sssp_core::config::{DirectionPolicy, IntraBalance, LongPhaseMode, SsspConfig};
use sssp_core::crauser::run_crauser;
use sssp_core::engine::{run_sssp, run_sssp_seeded};
use sssp_core::pagerank::{run_pagerank, PageRankConfig};
use sssp_dist::split::{auto_threshold, split_heavy_vertices};
use sssp_dist::{DistGraph, Partition};
use sssp_graph::gen::PullExample;
use sssp_graph::rmat::{RmatGenerator, RmatParams};
use sssp_graph::social::social_preset;
use sssp_graph::{Csr, CsrBuilder, VertexId};

fn rmat(params: RmatParams, scale: u32) -> Csr {
    CsrBuilder::new().build(
        &RmatGenerator::new(params, scale, 16)
            .seed(1)
            .generate_weighted(255),
    )
}

/// The presets of the figure and ablation binaries.
fn configs() -> Vec<(String, SsspConfig)> {
    use LongPhaseMode::{Pull, Push};
    let mut v: Vec<(String, SsspConfig)> = vec![
        ("bellman-ford".into(), SsspConfig::bellman_ford()),
        ("dijkstra".into(), SsspConfig::dijkstra()),
        (
            "hybrid-25".into(),
            SsspConfig::del(25).with_hybrid(Some(0.4)),
        ),
        ("rho-1k".into(), SsspConfig::rho(1024)),
        ("rho-2k".into(), SsspConfig::rho(2048)),
        ("rho-4k".into(), SsspConfig::rho(4096)),
        ("radius-4".into(), SsspConfig::radius(4)),
        ("radius-8".into(), SsspConfig::radius(8)),
        (
            "prune-25-push".into(),
            SsspConfig::prune(25)
                .with_hybrid(None)
                .with_direction(DirectionPolicy::AlwaysPush),
        ),
        (
            "prune-25-pull".into(),
            SsspConfig::prune(25)
                .with_hybrid(None)
                .with_direction(DirectionPolicy::AlwaysPull),
        ),
        (
            "opt-25-forced".into(),
            SsspConfig::opt(25).with_direction(DirectionPolicy::Forced(vec![Pull, Push, Pull])),
        ),
        (
            "opt-25-pi-64".into(),
            SsspConfig::opt(25).with_intra_balance(IntraBalance::Threshold(64)),
        ),
        (
            "opt-25-pi-off".into(),
            SsspConfig::opt(25).with_intra_balance(IntraBalance::Off),
        ),
    ];
    for d in [5u32, 10, 25, 40, 50, 100] {
        v.push((format!("del-{d}"), SsspConfig::del(d)));
        v.push((format!("del-{d}-ios"), SsspConfig::del(d).with_ios(true)));
    }
    for d in [25u32, 40] {
        v.push((format!("prune-{d}"), SsspConfig::prune(d)));
        v.push((format!("opt-{d}"), SsspConfig::opt(d)));
        v.push((format!("lb-opt-{d}"), SsspConfig::lb_opt(d)));
    }
    v
}

/// FNV-1a over the distance field.
fn hash(d: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in d {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn line(name: &str, dg: &DistGraph, seeds: &[(VertexId, u64)], cfg: &SsspConfig) -> String {
    let out = if let [(root, 0)] = seeds {
        run_sssp(dg, *root, cfg, &MachineModel::bgq_like())
    } else {
        run_sssp_seeded(dg, seeds, cfg, &MachineModel::bgq_like())
    };
    let s = &out.stats;
    format!(
        "{name} p={} t={} sim={:016x} bucket={:016x} relax={:016x} steps={} msgs={} coll={} fp={:016x} dist={:016x}\n",
        dg.num_ranks(),
        dg.threads_per_rank,
        s.ledger.total_s().to_bits(),
        s.ledger.bucket_s.to_bits(),
        s.ledger.relax_s.to_bits(),
        s.supersteps(),
        s.comm.total_msgs(),
        s.comm.collectives,
        s.comm.fingerprint,
        hash(&out.distances),
    )
}

/// The RMAT-1, RMAT-2 and Chung–Lu (social) stand-ins both tables run on.
fn graphs() -> [(&'static str, Csr); 3] {
    let social = CsrBuilder::new().build(
        &social_preset("livejournal", 8192)
            .expect("preset exists")
            .generate(),
    );
    [
        ("rmat1", rmat(RmatParams::RMAT1, 9)),
        ("rmat2", rmat(RmatParams::RMAT2, 9)),
        ("social", social),
    ]
}

fn table() -> String {
    let mut t = String::new();
    let graphs = graphs();
    let cfgs = configs();
    for (gname, g) in &graphs {
        for p in [1usize, 2, 4, 8] {
            let threads = if p == 8 { 64 } else { 4 };
            let dg = DistGraph::build(g, p, threads);
            for (cname, cfg) in &cfgs {
                t.push_str(&line(&format!("{gname} {cname}"), &dg, &[(1, 0)], cfg));
            }
            // Multi-seed runs (closeness and Voronoi-style callers).
            let seeds = [(3, 0), (100, 7), (3, 2)];
            let opt = SsspConfig::opt(25);
            t.push_str(&line(&format!("{gname} opt-25-seeds"), &dg, &seeds, &opt));
        }
    }
    let r1 = &graphs[0].1;
    // LB-OPT on the split RMAT-1 graph (fig01 / fig12) and OPT-25 on the
    // cyclic partition (ablation_partition).
    for p in [2usize, 4] {
        let (split_csr, part, _) = split_heavy_vertices(r1, p, auto_threshold(r1, p) / 4);
        let dg =
            DistGraph::build_with_partition(&split_csr, part, 4, r1.num_undirected_edges() as u64);
        for d in [25u32, 40] {
            let name = format!("rmat1-split lb-opt-{d}");
            t.push_str(&line(&name, &dg, &[(1, 0)], &SsspConfig::lb_opt(d)));
        }
        let dg = DistGraph::build_with_partition(
            r1,
            Partition::cyclic(r1.num_vertices(), p),
            4,
            r1.num_undirected_edges() as u64,
        );
        t.push_str(&line(
            "rmat1-cyclic opt-25",
            &dg,
            &[(1, 0)],
            &SsspConfig::opt(25),
        ));
    }
    // fig06's fixed pull example with forced long-phase directions.
    let ex = CsrBuilder::new().build(&PullExample::default().build());
    let dg = DistGraph::build(&ex, 4, 1);
    for seq in [
        vec![LongPhaseMode::Push; 3],
        vec![
            LongPhaseMode::Push,
            LongPhaseMode::Pull,
            LongPhaseMode::Push,
        ],
    ] {
        let cfg = SsspConfig::del(5)
            .with_ios(false)
            .with_direction(DirectionPolicy::Forced(seq.clone()));
        t.push_str(&line(
            &format!("pull-example {seq:?}"),
            &dg,
            &[(0, 0)],
            &cfg,
        ));
    }
    t
}

/// The traffic and time columns every kernel row shares: superstep count,
/// message and byte totals, the largest per-rank send/receive of any
/// superstep, a hash over every superstep record, the collective count,
/// the fingerprint and the ledger's f64 bits.
fn comm_cols(comm: &CommStats, ledger: &TimeLedger) -> String {
    let step_fields: Vec<u64> = comm
        .steps
        .iter()
        .flat_map(|s| {
            [
                s.remote_msgs,
                s.local_msgs,
                s.remote_bytes,
                s.max_rank_send_bytes,
                s.max_rank_recv_bytes,
                s.coalesced_msgs,
            ]
        })
        .collect();
    let max_send = comm.steps.iter().map(|s| s.max_rank_send_bytes).max();
    let max_recv = comm.steps.iter().map(|s| s.max_rank_recv_bytes).max();
    format!(
        "steps={} remote={} local={} bytes={} coalesced={} max_send={} max_recv={} step_hash={:016x} coll={} fp={:016x} sim={:016x} bucket={:016x} relax={:016x}",
        comm.num_supersteps(),
        comm.total_remote_msgs(),
        comm.total_local_msgs(),
        comm.total_remote_bytes(),
        comm.total_coalesced_msgs(),
        max_send.unwrap_or(0),
        max_recv.unwrap_or(0),
        hash(&step_fields),
        comm.collectives,
        comm.fingerprint,
        ledger.total_s().to_bits(),
        ledger.bucket_s.to_bits(),
        ledger.relax_s.to_bits(),
    )
}

fn kernel_table() -> String {
    let mut t = String::new();
    let models = [
        ("plain", MachineModel::bgq_like()),
        ("packet", MachineModel::bgq_like_packetized()),
    ];
    for (gname, g) in graphs() {
        for p in [1usize, 2, 4, 8] {
            let threads = if p == 8 { 64 } else { 4 };
            let dg = DistGraph::build(&g, p, threads);
            for (mname, model) in &models {
                let head = format!("{gname} {mname} p={p} t={threads}");

                let bfs = run_bfs(&dg, 1, model);
                let levels: Vec<u64> = bfs
                    .stats
                    .levels
                    .iter()
                    .flat_map(|l| {
                        let dir = u64::from(l.direction == BfsDirection::BottomUp);
                        [u64::from(l.level), dir, l.frontier_size, l.edges_examined]
                    })
                    .collect();
                let depth: Vec<u64> = bfs.depth.iter().map(|&d| u64::from(d)).collect();
                t.push_str(&format!(
                    "{head} bfs depth={:016x} levels={} level_hash={:016x} visited={} examined={} {}\n",
                    hash(&depth),
                    bfs.stats.levels.len(),
                    hash(&levels),
                    bfs.stats.visited,
                    bfs.stats.edges_examined_total,
                    comm_cols(&bfs.stats.comm, &bfs.stats.ledger),
                ));

                let cc = run_cc(&dg, model);
                let labels: Vec<u64> = cc.labels.iter().map(|&l| u64::from(l)).collect();
                t.push_str(&format!(
                    "{head} cc labels={:016x} rounds={} {}\n",
                    hash(&labels),
                    cc.rounds,
                    comm_cols(&cc.comm, &cc.ledger),
                ));

                let pr = run_pagerank(&dg, &PageRankConfig::default(), model);
                let scores: Vec<u64> = pr.scores.iter().map(|s| s.to_bits()).collect();
                t.push_str(&format!(
                    "{head} pagerank scores={:016x} iterations={} converged={} {}\n",
                    hash(&scores),
                    pr.iterations,
                    pr.converged,
                    comm_cols(&pr.comm, &pr.ledger),
                ));

                let cr = run_crauser(&dg, 1, model);
                t.push_str(&format!(
                    "{head} crauser dist={:016x} phases={} relaxations={} settled={:016x} {}\n",
                    hash(&cr.distances),
                    cr.stats.phases,
                    cr.stats.relaxations,
                    hash(&cr.stats.settled_per_phase),
                    comm_cols(&cr.stats.comm, &cr.stats.ledger),
                ));
            }
        }
    }
    t
}

fn assert_matches(golden: &str, now: &str, what: &str) {
    for (i, (a, b)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(a, b, "{what} pin drifted at line {}", i + 1);
    }
    assert_eq!(
        golden.lines().count(),
        now.lines().count(),
        "{what} row count drifted"
    );
}

#[test]
fn cost_model_matches_the_pinned_table() {
    assert_matches(
        include_str!("golden/cost_model_pin.txt"),
        &table(),
        "cost-model",
    );
}

#[test]
fn kernels_match_the_pinned_table() {
    assert_matches(
        include_str!("golden/kernel_pin.txt"),
        &kernel_table(),
        "kernel",
    );
}
