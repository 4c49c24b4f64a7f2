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

use sssp_comm::cost::MachineModel;
use sssp_core::config::{DirectionPolicy, IntraBalance, LongPhaseMode, SsspConfig};
use sssp_core::engine::{run_sssp, run_sssp_seeded};
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

fn table() -> String {
    let mut t = String::new();
    let r1 = rmat(RmatParams::RMAT1, 9);
    let r2 = rmat(RmatParams::RMAT2, 9);
    let social = CsrBuilder::new().build(
        &social_preset("livejournal", 8192)
            .expect("preset exists")
            .generate(),
    );
    let cfgs = configs();
    for (gname, g) in [("rmat1", &r1), ("rmat2", &r2), ("social", &social)] {
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
    // LB-OPT on the split RMAT-1 graph (fig01 / fig12) and OPT-25 on the
    // cyclic partition (ablation_partition).
    for p in [2usize, 4] {
        let (split_csr, part, _) = split_heavy_vertices(&r1, p, auto_threshold(&r1, p) / 4);
        let dg =
            DistGraph::build_with_partition(&split_csr, part, 4, r1.num_undirected_edges() as u64);
        for d in [25u32, 40] {
            let name = format!("rmat1-split lb-opt-{d}");
            t.push_str(&line(&name, &dg, &[(1, 0)], &SsspConfig::lb_opt(d)));
        }
        let dg = DistGraph::build_with_partition(
            &r1,
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

#[test]
fn cost_model_matches_the_pinned_table() {
    let golden = include_str!("golden/cost_model_pin.txt");
    let now = table();
    for (i, (a, b)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(a, b, "cost-model pin drifted at line {}", i + 1);
    }
    assert_eq!(
        golden.lines().count(),
        now.lines().count(),
        "row count drifted"
    );
}
