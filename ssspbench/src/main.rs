//! `ssspbench`: one command for the workloads of `BENCHMARK.json`.
//!
//! ```text
//! cargo run --release --offline --manifest-path ssspbench/Cargo.toml -- \
//!     --workload <oneshot-rmat2-s18|simfig-rmat1-weak> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, measures for
//! `--seconds`, checks every answer against sequential radix Dijkstra and
//! prints, as its last stdout line, one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! full result (settings, both metric sets, and the spans of a traced
//! run) is written to `.bench_out/`. See `README.md` next to this file.

mod adapter;
mod heap;
mod layers;
mod oneshot;
mod serve;
mod simfig;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use trace::Tracer;

#[global_allocator]
static GLOBAL: heap::CountingAlloc = heap::CountingAlloc;

/// The worker count of the vendored rayon shim, pinned on every run and
/// every host. With one worker the shim runs inline: with two, the
/// simulator's scoped-thread spawn on every `par_iter` made the sweep's
/// median move by 31% between runs on a 2-core host under 8% steal.
const RAYON_THREADS: &str = "1";

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("throughput", "1/s"),
    ("cost_ratio", "ratio"),
    ("sim_gteps", "GTEPS"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.rmat_s", "s"),
    ("graph.csr_s", "s"),
    ("dist.build_s", "s"),
    ("dist.edge_imbalance", "ratio"),
    ("engine.empty_query_us", "us"),
    ("engine.ss_query_ms.p50", "ms"),
    ("engine.p2p_query_ms.p50", "ms"),
    ("engine.short_ms", "ms"),
    ("engine.long_push_ms", "ms"),
    ("engine.long_pull_ms", "ms"),
    ("engine.bf_ms", "ms"),
    ("engine.outside_phases_ms", "ms"),
    ("engine.epochs", "count"),
    ("engine.supersteps", "count"),
    ("engine.relax_per_edge", "ratio"),
    ("comm.remote_msgs", "count"),
    ("comm.remote_bytes", "bytes"),
    ("comm.coalesced_frac", "ratio"),
    ("comm.max_step_send_bytes", "bytes"),
    ("seq.radix_ms.p50", "ms"),
    ("serve.submit_us.p99", "us"),
    ("serve.rebuild_us.p50", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_lookups", "count"),
    ("serve.epochs_per_query.ss", "count"),
    ("serve.epochs_per_query.p2p", "count"),
    ("serve.peak_inflight", "count"),
    ("serve.backlog", "count"),
    ("sim.ms_per_root.p2", "ms"),
    ("sim.ms_per_root.p4", "ms"),
    ("sim.ms_per_root.p8", "ms"),
    ("sim.ms_per_root.p16", "ms"),
    ("sim.ms_per_root.p32", "ms"),
    ("sim.us_per_superstep", "us"),
    ("sim.empty_run_us", "us"),
    ("sim.supersteps", "count"),
    ("sim.msgs", "count"),
    ("sim.simulated_s", "sim_s"),
    ("trace_overhead_frac", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything one workload run produces.
pub struct Run {
    pub t: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Settings and sample counts recorded next to the metrics.
    pub notes: Vec<(&'static str, String)>,
}

impl Run {
    fn new(trace: bool) -> Run {
        Run {
            t: Tracer::new(trace),
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Count one checked answer; report a wrong one on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("WRONG ANSWER: {}", what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, value: impl ToString) {
        self.notes.push((name, value.to_string()));
    }
}

fn metrics_json(run: &Run, names: &[(&str, &str)]) -> Result<String, String> {
    let mut parts = Vec::new();
    for &(name, unit) in names {
        let v = *run
            .metrics
            .get(name)
            .ok_or(format!("workload did not measure {name}"))?;
        if !v.is_finite() {
            return Err(format!("{name} is not finite: {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ssspbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists: the shim reads the variable once.
    std::env::set_var("RAYON_NUM_THREADS", RAYON_THREADS);

    let mut run = Run::new(args.trace);
    let started = std::time::Instant::now();
    let ticks0 = stats::cpu_ticks();
    match args.workload.as_str() {
        "oneshot-rmat2-s18" => oneshot::run(&args, &mut run),
        "simfig-rmat1-weak" => simfig::run(&args, &mut run),
        other => {
            eprintln!("ssspbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    // Time the host gave to other guests while this run wanted the CPU:
    // results taken under heavy steal are not comparable.
    let ticks1 = stats::cpu_ticks();
    run.note(
        "host_steal_frac",
        format!(
            "{:.3}",
            stats::ratio((ticks1.0 - ticks0.0) as f64, (ticks1.1 - ticks0.1) as f64)
        ),
    );

    let (names, other) = if args.trace {
        (PER_LAYER, END_TO_END)
    } else {
        (END_TO_END, PER_LAYER)
    };
    let printed = match metrics_json(&run, names) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("ssspbench: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = run.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {printed}}}",
        run.attempted, run.failed
    );

    // Host and settings travel with every result.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut settings = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        (
            "rayon_num_threads",
            rayon::current_num_threads().to_string(),
        ),
        ("build_profile", profile.to_string()),
        ("commit", stats::commit()),
        ("wall_s", format!("{:.3}", started.elapsed().as_secs_f64())),
    ];
    settings.extend(run.notes.iter().map(|(k, v)| (*k, v.clone())));
    for (k, v) in &settings {
        eprintln!("  {k:<24} {v}");
    }
    for &(name, unit) in names {
        eprintln!("  {name:<32} {:>14.4} {unit}", run.metrics[name]);
    }

    let settings_json: Vec<String> = settings
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    let other_json = metrics_json(&run, other).unwrap_or_else(|_| "{}".to_string());
    let file = format!(
        "{{\"settings\": {{{}}},\n\"result\": {result},\n\"other_metrics\": {other_json},\n\
         \"spans\": [\n{}]}}\n",
        settings_json.join(", "),
        run.t.to_json_lines().trim_end().replace('\n', ",\n"),
    );
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, file)) {
        eprintln!("ssspbench: cannot write {}: {e}", path.display());
        return ExitCode::from(1);
    }
    println!("{result}");
    ExitCode::SUCCESS
}
