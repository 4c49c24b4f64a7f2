//! Machine-readable perf-baseline records (`BENCH_sssp.json`).
//!
//! `perf_baseline` measures the engine on both backends — the simulator
//! (recorded under `pooled`, its pooled superstep buffers) and the
//! real-thread backend — and records wall time, allocation counts,
//! message traffic and simulated time here. Records render to [`Json`]
//! through the shared [`sssp_core::json`] codec, and the `--check` gates
//! read the committed document back through it by path
//! (`scale_20.pooled.remote_msgs`, `serving.queries`).
//!
//! The document holds one block per measured R-MAT scale, keyed
//! `"scale_N"`, plus an optional `"serving"` block recorded by
//! `serve_bench` (concurrent multi-root query throughput over a resident
//! graph). Each binary regenerates only its own block ([`record_block`]:
//! parse, replace one key, render); the codec keeps number lexemes, so
//! the other blocks come back textually identical.
//!
//! GTEPS conventions: every GTEPS figure in a block divides the same
//! traversed-edge count (`gteps_edges`, the undirected input edge count)
//! by a time. `gteps` on the simulated records uses the cost-model clock;
//! `gteps_wall` (and the threaded backend's `gteps`) use measured wall
//! time. Compare wall to wall and simulated to simulated — the two clocks
//! measure different machines.

use sssp_core::json::{self, Json};

/// Metrics of the measured simulated configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfRecord {
    /// Wall-clock milliseconds over all measured roots.
    pub wall_ms: f64,
    /// Heap allocations performed during the measured runs.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Data-exchange supersteps accumulated over the measured runs.
    pub supersteps: u64,
    /// Messages delivered over the measured runs (post-coalescing).
    pub msgs: u64,
    /// The subset of `msgs` that crossed rank boundaries — the wire
    /// traffic the drift gate watches.
    pub remote_msgs: u64,
    /// Messages removed by sender-side coalescing before the exchanges.
    pub coalesced_msgs: u64,
    /// Mean simulated seconds per run (the cost-model clock).
    pub simulated_s: f64,
    /// Mean simulated GTEPS per run: the block's `gteps_edges` denominator
    /// over `simulated_s`. Comparable only with other simulated figures.
    pub gteps: f64,
    /// Mean wall-clock GTEPS per run: the same `gteps_edges` denominator
    /// over measured wall time per root. This is the figure comparable
    /// with the threaded backend's (wall-clock) `gteps`.
    pub gteps_wall: f64,
}

impl PerfRecord {
    /// Allocations per superstep — the pooling work's headline metric.
    pub fn allocs_per_superstep(&self) -> f64 {
        if self.supersteps == 0 {
            0.0
        } else {
            self.allocs as f64 / self.supersteps as f64
        }
    }

    /// Fraction of would-be messages the coalescer removed — the
    /// coalescing work's headline metric.
    pub fn coalesced_fraction(&self) -> f64 {
        let would_be = self.msgs + self.coalesced_msgs;
        if would_be == 0 {
            0.0
        } else {
            self.coalesced_msgs as f64 / would_be as f64
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("wall_ms", Json::fixed(self.wall_ms, 3)),
            ("allocs", self.allocs.into()),
            ("alloc_bytes", self.alloc_bytes.into()),
            ("supersteps", self.supersteps.into()),
            (
                "allocs_per_superstep",
                Json::fixed(self.allocs_per_superstep(), 3),
            ),
            ("msgs", self.msgs.into()),
            ("remote_msgs", self.remote_msgs.into()),
            ("coalesced_msgs", self.coalesced_msgs.into()),
            (
                "coalesced_fraction",
                Json::fixed(self.coalesced_fraction(), 4),
            ),
            ("simulated_s", Json::fixed(self.simulated_s, 6)),
            ("gteps", Json::fixed(self.gteps, 6)),
            ("gteps_wall", Json::fixed(self.gteps_wall, 6)),
        ])
    }
}

/// Metrics of the real-thread backend run (one OS thread per rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadedRecord {
    /// Wall-clock milliseconds over all measured roots.
    pub wall_ms: f64,
    /// Wall-clock GTEPS over the measured runs: the block's `gteps_edges`
    /// denominator over measured wall time per root. There is no
    /// cost-model ledger on this backend, so the figure comparable here is
    /// the simulated records' `gteps_wall`, never their simulated `gteps`.
    pub gteps: f64,
    /// Wall-time speedup over the pooled simulated engine on the same
    /// workload (pooled wall_ms / threaded wall_ms).
    pub speedup_vs_pooled: f64,
    /// Relax messages that stayed on the sender's own rank
    /// (post-coalescing; never touch the channels' wire).
    pub relax_local_msgs: u64,
    /// Relax messages that crossed rank boundaries (post-coalescing).
    pub relax_remote_msgs: u64,
    /// Relax messages removed by sender-side coalescing.
    pub coalesced_msgs: u64,
}

impl ThreadedRecord {
    /// All relax messages that entered an exchange, local and remote.
    pub fn relax_msgs_total(&self) -> u64 {
        self.relax_local_msgs + self.relax_remote_msgs
    }

    /// Fraction of would-be relax messages the coalescer removed.
    pub fn coalesced_fraction(&self) -> f64 {
        let would_be = self.relax_msgs_total() + self.coalesced_msgs;
        if would_be == 0 {
            0.0
        } else {
            self.coalesced_msgs as f64 / would_be as f64
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("wall_ms", Json::fixed(self.wall_ms, 3)),
            ("gteps", Json::fixed(self.gteps, 6)),
            ("speedup_vs_pooled", Json::fixed(self.speedup_vs_pooled, 3)),
            ("relax_local_msgs", self.relax_local_msgs.into()),
            ("relax_remote_msgs", self.relax_remote_msgs.into()),
            ("coalesced_msgs", self.coalesced_msgs.into()),
            (
                "coalesced_fraction",
                Json::fixed(self.coalesced_fraction(), 4),
            ),
        ])
    }
}

/// The unified-telemetry block: a simulated and a threaded trace of the
/// same workload compared bucket-by-bucket, plus the threaded trace's
/// headline counters (which the `--check` gate watches for drift).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryRecord {
    /// 1 when the simulated and threaded traces diffed clean, else 0
    /// (numeric, like every other gated field).
    pub backends_agree: u8,
    /// Buckets processed before the hybrid tail (per traced run).
    pub buckets: u64,
    /// Data-exchange supersteps of the traced run.
    pub supersteps: u64,
    /// Rank-local messages of the traced run (relax + requests).
    pub local_msgs: u64,
    /// Wire messages of the traced run (relax + requests).
    pub remote_msgs: u64,
    /// Messages removed by sender-side coalescing in the traced run.
    pub coalesced_msgs: u64,
    /// Wall-clock nanoseconds the threaded trace spent in short-edge
    /// phases. The wall fields track the slowest rank's critical path and
    /// vary with machine load, so the `--check` gate never compares them
    /// against the committed baseline — it only sanity-checks the current
    /// run's numbers against each other ([`TelemetryRecord::wall_problems`]).
    pub wall_short_ns: u64,
    /// Wall-clock nanoseconds in long push phases.
    pub wall_long_push_ns: u64,
    /// Wall-clock nanoseconds in long pull phases.
    pub wall_long_pull_ns: u64,
    /// Wall-clock nanoseconds in Bellman-Ford tail rounds.
    pub wall_bf_ns: u64,
    /// End-to-end measured wall time of the traced threaded run (timed
    /// around the whole run, unlike the per-phase accumulators above,
    /// which only cover phase bodies). The `--check` gate cross-validates
    /// the phase accumulators against this: their sum may not exceed it,
    /// and neither may be zero on a run that performed supersteps.
    pub wall_measured_ns: u64,
}

impl TelemetryRecord {
    /// Sum of the per-phase wall-clock accumulators (NOT the measured
    /// end-to-end wall time — that is [`TelemetryRecord::wall_measured_ns`];
    /// this sum excludes setup, collectives and inter-phase gaps).
    pub fn wall_total_ns(&self) -> u64 {
        self.wall_short_ns + self.wall_long_push_ns + self.wall_long_pull_ns + self.wall_bf_ns
    }

    /// Sanity problems in the wall-clock telemetry of *this* run: the
    /// phase-time sum exceeding the measured end-to-end wall time (the
    /// accumulators cover disjoint sub-intervals of the run, so their sum
    /// is bounded by it), or zero wall time on a run that demonstrably
    /// performed supersteps. Empty on healthy telemetry.
    pub fn wall_problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.wall_total_ns() > self.wall_measured_ns {
            problems.push(format!(
                "telemetry wall-clock phase sum {} ns exceeds the measured \
                 run wall time {} ns — the phase accumulators overlap or \
                 the total was not measured around the whole run",
                self.wall_total_ns(),
                self.wall_measured_ns
            ));
        }
        if self.supersteps > 0 {
            if self.wall_total_ns() == 0 {
                problems.push(format!(
                    "telemetry recorded {} supersteps but zero wall-clock \
                     phase time — the threaded recorder dropped its timings",
                    self.supersteps
                ));
            }
            if self.wall_measured_ns == 0 {
                problems.push(format!(
                    "telemetry recorded {} supersteps but zero measured \
                     wall time — the traced run was not timed",
                    self.supersteps
                ));
            }
        }
        problems
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("backends_agree", self.backends_agree.into()),
            ("buckets", self.buckets.into()),
            ("supersteps", self.supersteps.into()),
            ("local_msgs", self.local_msgs.into()),
            ("remote_msgs", self.remote_msgs.into()),
            ("coalesced_msgs", self.coalesced_msgs.into()),
            ("wall_short_ns", self.wall_short_ns.into()),
            ("wall_long_push_ns", self.wall_long_push_ns.into()),
            ("wall_long_pull_ns", self.wall_long_pull_ns.into()),
            ("wall_bf_ns", self.wall_bf_ns.into()),
            ("wall_measured_ns", self.wall_measured_ns.into()),
        ])
    }
}

/// A full baseline document: the workload parameters plus one record per
/// measured engine mode.
#[derive(Debug, Clone)]
pub struct PerfBaseline {
    /// Graph family name (e.g. "RMAT-2").
    pub family: String,
    /// R-MAT scale (log2 of the vertex count).
    pub scale: u32,
    /// Simulated rank count.
    pub ranks: usize,
    /// Logical threads per rank.
    pub threads: usize,
    /// Number of measured roots.
    pub roots: usize,
    /// The traversed-edge denominator shared by every GTEPS figure in this
    /// block: the undirected input edge count of the benchmark graph.
    pub gteps_edges: u64,
    /// Metrics of the simulator (whose superstep buffers are pooled).
    pub pooled: PerfRecord,
    /// Metrics of the real-thread backend on the same workload.
    pub threaded: ThreadedRecord,
    /// The unified-telemetry block (simulated vs threaded trace compare).
    pub telemetry: TelemetryRecord,
}

impl PerfBaseline {
    /// This scale's block as a JSON object (stored under `"scale_N"`).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("family", self.family.as_str().into()),
            ("scale", self.scale.into()),
            ("ranks", self.ranks.into()),
            ("threads", self.threads.into()),
            ("roots", self.roots.into()),
            ("gteps_edges", self.gteps_edges.into()),
            ("pooled", self.pooled.to_json()),
            ("threaded", self.threaded.to_json()),
            ("telemetry", self.telemetry.to_json()),
        ])
    }

    /// Gate this freshly measured block against the same scale's block of
    /// the `committed` baseline document. Wall times and allocations per
    /// superstep may not regress by more than `tol`; remote traffic is
    /// deterministic for a fixed workload, so it may not drift in *either*
    /// direction past `tol` (fewer messages means the accounting changed,
    /// not the machine). The committed and the current traces must both
    /// report agreeing backends, and the current wall-clock telemetry must
    /// be self-consistent ([`TelemetryRecord::wall_problems`]).
    pub fn check_against(&self, committed: &Json, tol: f64) -> Result<(), String> {
        let key = format!("scale_{}", self.scale);
        let block = committed
            .at(&key)
            .map_err(|_| format!("committed baseline has no {key} block"))?;
        let mut problems = Vec::new();
        let (p, t) = (&self.pooled, &self.telemetry);
        let aps = p.allocs_per_superstep();
        // (path in the block, current value, drift gate rather than regression gate)
        let gates = [
            ("pooled.wall_ms", p.wall_ms, false),
            ("pooled.allocs_per_superstep", aps, false),
            ("threaded.wall_ms", self.threaded.wall_ms, false),
            ("pooled.remote_msgs", p.remote_msgs as f64, true),
            ("telemetry.remote_msgs", t.remote_msgs as f64, true),
        ];
        for (name, now, drift) in gates {
            let Ok(b) = block.f64_at(name) else {
                problems.push(format!("committed baseline is missing {name}"));
                continue;
            };
            if b > 0.0 && drift && (now / b - 1.0).abs() > tol {
                problems.push(format!(
                    "{name} drifted: {now:.0} vs baseline {b:.0} ({:+.1}%, tolerance {:.0}%)",
                    100.0 * (now / b - 1.0),
                    100.0 * tol
                ));
            } else if b > 0.0 && !drift && now > b * (1.0 + tol) {
                problems.push(format!(
                    "{name} regressed: {now:.3} vs baseline {b:.3} (+{:.0}% > {:.0}% tolerance)",
                    100.0 * (now / b - 1.0),
                    100.0 * tol
                ));
            }
        }
        match block.f64_at("telemetry.backends_agree") {
            Ok(b) if b != 1.0 => problems.push(format!(
                "committed baseline records backends_agree = {b} (expected 1)"
            )),
            Ok(_) => {}
            Err(_) => {
                problems.push("committed baseline is missing telemetry.backends_agree".to_string())
            }
        }
        if t.backends_agree != 1 {
            problems.push("simulated and threaded traces diverged in this run".to_string());
        }
        // The committed wall-clock telemetry is machine-dependent and not
        // comparable; only the current run's is sanity-checked.
        problems.extend(t.wall_problems());
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("\n"))
        }
    }
}

/// Metrics of the query-serving layer under concurrent load, recorded by
/// `serve_bench`: one resident graph, `max_inflight` worker threads, a
/// mixed batch of single-source / multi-seed / point-to-point / repeat
/// queries pushed through the scheduler at once.
#[derive(Debug, Clone)]
pub struct ServingRecord {
    /// Graph family name (e.g. "RMAT-2").
    pub family: String,
    /// R-MAT scale (log2 of the vertex count).
    pub scale: u32,
    /// Rank count of the resident partition.
    pub ranks: usize,
    /// Logical threads per rank.
    pub threads: usize,
    /// Scheduler admission bound (= worker thread count).
    pub max_inflight: usize,
    /// Queries submitted over the measured batch.
    pub queries: usize,
    /// High-water mark of simultaneously running queries. The `--check`
    /// gate requires this to reach `max_inflight` — a serving layer that
    /// serializes its workers is not serving concurrently.
    pub peak_inflight: usize,
    /// 1 when every served distance field was bit-identical to a fresh
    /// one-shot engine run, else 0 (numeric, like every other gated field).
    pub distances_match: u8,
    /// Distance-cache hits over the batch (repeat roots + landmarks).
    pub cache_hits: u64,
    /// Distance-cache misses over the batch.
    pub cache_misses: u64,
    /// Epoch-select rounds of one engine-run point-to-point query.
    pub p2p_epochs: u64,
    /// Epoch-select rounds of the matching full single-source query. The
    /// gate requires `p2p_epochs < full_epochs`: the target cutoff must
    /// actually terminate early.
    pub full_epochs: u64,
    /// Queries that panicked and were absorbed by the worker's
    /// `catch_unwind` (failing only their own ticket). The `--check` gate
    /// requires zero: the clean benchmark batch must not trip the crash
    /// isolation.
    pub panicked: u64,
    /// Queries that missed their deadline and failed with
    /// `QueryError::TimedOut`. The benchmark runs without a deadline, so
    /// the gate requires zero.
    pub timed_out: u64,
    /// Wall-clock milliseconds over the whole measured batch.
    pub wall_ms: f64,
    /// Queries completed per second of batch wall time. Wall-clock
    /// figures vary with machine load, so the `--check` gate never
    /// compares them against the committed baseline — it gates only the
    /// structural fields above.
    pub queries_per_sec: f64,
}

impl ServingRecord {
    /// Gate problems in *this* record: no queries measured, served
    /// distances diverging from the one-shot oracle, a scheduler that
    /// never reached its admission bound, or a point-to-point cutoff
    /// that saved no epochs. Empty on a healthy serving baseline.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.queries == 0 {
            problems.push("serving baseline measured zero queries".to_string());
        }
        if self.distances_match != 1 {
            problems.push(
                "served distances diverged from fresh one-shot engine runs \
                 — resident state leaked across queries"
                    .to_string(),
            );
        }
        if self.peak_inflight < self.max_inflight {
            problems.push(format!(
                "peak inflight {} never reached the admission bound {} — \
                 the scheduler is not serving queries concurrently",
                self.peak_inflight, self.max_inflight
            ));
        }
        if self.p2p_epochs >= self.full_epochs {
            problems.push(format!(
                "point-to-point query ran {} epochs vs {} for the full \
                 field — the target cutoff saved nothing",
                self.p2p_epochs, self.full_epochs
            ));
        }
        if self.panicked != 0 {
            problems.push(format!(
                "{} quer{} panicked during the clean benchmark batch — \
                 crash isolation absorbed them, but a healthy baseline \
                 must not panic at all",
                self.panicked,
                if self.panicked == 1 { "y" } else { "ies" }
            ));
        }
        if self.timed_out != 0 {
            problems.push(format!(
                "{} quer{} timed out in a run with no deadline configured",
                self.timed_out,
                if self.timed_out == 1 { "y" } else { "ies" }
            ));
        }
        problems
    }

    /// The serving block as a JSON object (stored under `"serving"`).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("family", self.family.as_str().into()),
            ("scale", self.scale.into()),
            ("ranks", self.ranks.into()),
            ("threads", self.threads.into()),
            ("max_inflight", self.max_inflight.into()),
            ("queries", self.queries.into()),
            ("peak_inflight", self.peak_inflight.into()),
            ("distances_match", self.distances_match.into()),
            ("cache_hits", self.cache_hits.into()),
            ("cache_misses", self.cache_misses.into()),
            ("p2p_epochs", self.p2p_epochs.into()),
            ("full_epochs", self.full_epochs.into()),
            ("panicked", self.panicked.into()),
            ("timed_out", self.timed_out.into()),
            ("wall_ms", Json::fixed(self.wall_ms, 3)),
            ("queries_per_sec", Json::fixed(self.queries_per_sec, 3)),
        ])
    }

    /// Read a serving block back (the inverse of [`ServingRecord::to_json`]).
    fn from_json(v: &Json) -> Result<ServingRecord, String> {
        Ok(ServingRecord {
            family: v.str_at("family")?.to_string(),
            scale: v.uint_at("scale")?,
            ranks: v.uint_at("ranks")?,
            threads: v.uint_at("threads")?,
            max_inflight: v.uint_at("max_inflight")?,
            queries: v.uint_at("queries")?,
            peak_inflight: v.uint_at("peak_inflight")?,
            distances_match: v.uint_at("distances_match")?,
            cache_hits: v.uint_at("cache_hits")?,
            cache_misses: v.uint_at("cache_misses")?,
            p2p_epochs: v.uint_at("p2p_epochs")?,
            full_epochs: v.uint_at("full_epochs")?,
            panicked: v.uint_at("panicked")?,
            timed_out: v.uint_at("timed_out")?,
            wall_ms: v.f64_at("wall_ms")?,
            queries_per_sec: v.f64_at("queries_per_sec")?,
        })
    }

    /// Gate this freshly measured record and the `committed` document's
    /// serving block: both must pass [`ServingRecord::problems`] (so the
    /// committed block needs every field, crash-isolation counters
    /// included), and the block must have been recorded with this run's
    /// parameters — a baseline recorded at others gates nothing.
    pub fn check_against(&self, committed: &Json) -> Result<(), String> {
        let base = committed
            .at("serving")
            .map_err(|_| "committed baseline has no serving block".to_string())
            .and_then(|block| {
                ServingRecord::from_json(block).map_err(|e| format!("committed serving block: {e}"))
            })?;
        let mut problems = self.problems();
        let committed_problems = base.problems().into_iter();
        problems.extend(committed_problems.map(|p| format!("committed serving block: {p}")));
        let params = |r: &ServingRecord| (r.scale, r.ranks, r.threads, r.max_inflight, r.queries);
        if params(&base) != params(self) {
            problems.push(format!(
                "committed serving block was recorded with (scale, ranks, threads, \
                 max_inflight, queries) = {:?}, this run uses {:?} — re-record the baseline",
                params(&base),
                params(self)
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("\n"))
        }
    }
}

/// Read and parse the baseline document at `path`.
pub fn read_document(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text)
}

/// Re-record the block `key` (`"scale_N"` or `"serving"`) of the baseline
/// document at `path`: parse, replace that one key, render. `"bench"`
/// comes first, then the scale blocks by scale, then the serving block.
/// Other blocks keep their values verbatim; any other key (a legacy
/// single-scale document's) is dropped. A missing file starts a fresh
/// document; one that is not a JSON object is an error.
pub fn record_block(path: &str, key: &str, block: Json) -> Result<(), String> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let text = upsert_block(&existing, key, block)?;
    std::fs::write(path, text).map_err(|e| e.to_string())
}

/// [`record_block`]'s document transformation on the text `existing`.
fn upsert_block(existing: &str, key: &str, block: Json) -> Result<String, String> {
    let mut blocks = match json::parse(existing) {
        _ if existing.trim().is_empty() => Vec::new(),
        Ok(Json::Obj(members)) => members,
        Ok(_) => return Err("baseline document is not a JSON object".to_string()),
        Err(e) => return Err(format!("baseline document is not valid JSON: {e}")),
    };
    blocks.retain(|(k, _)| k != key && block_order(k).is_some());
    blocks.push((key.to_string(), block));
    blocks.sort_by_key(|(k, _)| block_order(k));
    blocks.insert(0, ("bench".to_string(), "perf_baseline".into()));
    Ok(Json::Obj(blocks).render())
}

/// A block's place in the document: scale blocks by scale, then the
/// serving block; `None` for any other key.
fn block_order(key: &str) -> Option<(bool, u32)> {
    let scale = key.strip_prefix("scale_").and_then(|s| s.parse().ok());
    scale
        .map(|s| (false, s))
        .or((key == "serving").then_some((true, 0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline document.
    const COMMITTED: &str = include_str!("../../../BENCH_sssp.json");

    fn committed() -> Json {
        json::parse(COMMITTED).expect("committed baseline parses")
    }

    /// `doc` with the member at `path` removed.
    fn without(mut doc: Json, path: &[&str]) -> Json {
        let (last, parents) = path.split_last().expect("non-empty path");
        let mut v = &mut doc;
        for key in parents {
            let Json::Obj(members) = v else {
                panic!("{key}: not an object")
            };
            v = &mut members
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("present")
                .1;
        }
        let Json::Obj(members) = v else {
            panic!("{last}: not in an object")
        };
        members.retain(|(k, _)| k != last);
        doc
    }

    /// Problem lines of a check that name a missing committed key.
    fn missing_lines(check: Result<(), String>) -> Vec<String> {
        let msg = check.err().unwrap_or_default();
        msg.lines()
            .filter(|l| l.contains("missing"))
            .map(str::to_string)
            .collect()
    }

    fn sample() -> PerfBaseline {
        PerfBaseline {
            family: "RMAT-2".to_string(),
            scale: 10,
            ranks: 4,
            threads: 4,
            roots: 3,
            gteps_edges: 16384,
            pooled: PerfRecord {
                wall_ms: 12.5,
                allocs: 480,
                alloc_bytes: 65536,
                supersteps: 120,
                msgs: 30000,
                remote_msgs: 22000,
                coalesced_msgs: 10000,
                simulated_s: 0.25,
                gteps: 0.0125,
                gteps_wall: 0.004,
            },
            threaded: ThreadedRecord {
                wall_ms: 5.0,
                gteps: 0.05,
                speedup_vs_pooled: 2.5,
                relax_local_msgs: 6000,
                relax_remote_msgs: 22000,
                coalesced_msgs: 10000,
            },
            telemetry: TelemetryRecord {
                backends_agree: 1,
                buckets: 40,
                supersteps: 120,
                local_msgs: 8000,
                remote_msgs: 22000,
                coalesced_msgs: 10000,
                wall_short_ns: 1_500_000,
                wall_long_push_ns: 400_000,
                wall_long_pull_ns: 250_000,
                wall_bf_ns: 100_000,
                wall_measured_ns: 3_000_000,
            },
        }
    }

    #[test]
    fn json_roundtrips_through_extract() {
        let doc = json::parse(&sample().to_json().render()).expect("rendered block parses");
        assert_eq!(doc, sample().to_json());
        let num = |path: &str| doc.f64_at(path).expect(path);
        assert_eq!(num("scale"), 10.0);
        assert_eq!(num("ranks"), 4.0);
        assert_eq!(doc.uint_at::<u64>("gteps_edges"), Ok(16384));
        assert_eq!(num("pooled.gteps_wall"), 0.004);
        assert_eq!(num("pooled.wall_ms"), 12.5);
        assert_eq!(doc.uint_at::<u64>("pooled.allocs"), Ok(480));
        assert_eq!(doc.uint_at::<u64>("pooled.msgs"), Ok(30000));
        assert_eq!(num("pooled.allocs_per_superstep"), 4.0);
        assert_eq!(doc.uint_at::<u64>("pooled.remote_msgs"), Ok(22000));
        assert_eq!(num("threaded.wall_ms"), 5.0);
        assert_eq!(num("threaded.speedup_vs_pooled"), 2.5);
        assert_eq!(doc.uint_at::<u64>("threaded.relax_local_msgs"), Ok(6000));
        assert_eq!(doc.uint_at::<u64>("threaded.relax_remote_msgs"), Ok(22000));
        assert_eq!(doc.uint_at::<u64>("threaded.coalesced_msgs"), Ok(10000));
        assert_eq!(doc.uint_at::<u64>("telemetry.backends_agree"), Ok(1));
        assert_eq!(doc.uint_at::<u64>("telemetry.buckets"), Ok(40));
        assert_eq!(doc.uint_at::<u64>("telemetry.remote_msgs"), Ok(22000));
        assert_eq!(doc.uint_at::<u64>("telemetry.wall_short_ns"), Ok(1_500_000));
        assert_eq!(doc.uint_at::<u64>("telemetry.wall_bf_ns"), Ok(100_000));
        assert_eq!(
            doc.uint_at::<u64>("telemetry.wall_measured_ns"),
            Ok(3_000_000)
        );
    }

    #[test]
    fn wall_total_sums_the_phase_accumulators() {
        let t = sample().telemetry;
        assert_eq!(t.wall_total_ns(), 2_250_000);
    }

    #[test]
    fn wall_problems_gate_phase_sum_and_zero_timings() {
        let healthy = sample().telemetry;
        assert!(healthy.wall_problems().is_empty());

        // Phase sum exceeding the measured run wall time is inconsistent.
        let mut t = healthy;
        t.wall_measured_ns = 1_000_000;
        let p = t.wall_problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("exceeds"), "{p:?}");

        // A run with supersteps must have nonzero phase and measured time.
        let mut t = healthy;
        t.wall_short_ns = 0;
        t.wall_long_push_ns = 0;
        t.wall_long_pull_ns = 0;
        t.wall_bf_ns = 0;
        t.wall_measured_ns = 0;
        let p = t.wall_problems();
        assert_eq!(p.len(), 2, "{p:?}");

        // A degenerate run (no supersteps) may be all-zero.
        t.supersteps = 0;
        assert!(t.wall_problems().is_empty());
    }

    #[test]
    fn multi_scale_document_roundtrips() {
        let ten = sample();
        let mut twenty = sample();
        twenty.scale = 20;
        twenty.pooled.wall_ms = 400.0;

        let doc = upsert_block("", "scale_20", twenty.to_json()).expect("fresh document");
        let doc = upsert_block(&doc, "scale_10", ten.to_json()).expect("valid document");
        let doc = json::parse(&doc).expect("rendered document parses");

        let Json::Obj(members) = &doc else {
            panic!("document is an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "scale_10", "scale_20"]);
        assert_eq!(doc.f64_at("scale_10.pooled.wall_ms"), Ok(12.5));
        assert_eq!(doc.f64_at("scale_20.pooled.wall_ms"), Ok(400.0));
        assert!(doc.at("scale_15").is_err());
    }

    #[test]
    fn upsert_replaces_only_its_own_scale() {
        let ten = sample();
        let mut twenty = sample();
        twenty.scale = 20;
        twenty.pooled.wall_ms = 400.0;
        let doc = upsert_block("", "scale_10", ten.to_json()).expect("fresh document");
        let doc = upsert_block(&doc, "scale_20", twenty.to_json()).expect("valid document");

        // Re-record scale 10 with a different wall time: scale 20 must
        // survive unchanged.
        let mut ten2 = sample();
        ten2.pooled.wall_ms = 9.0;
        let doc2 = upsert_block(&doc, "scale_10", ten2.to_json()).expect("valid document");
        let (doc, doc2) = (
            json::parse(&doc).expect("parses"),
            json::parse(&doc2).expect("parses"),
        );
        assert_eq!(doc2.f64_at("scale_10.pooled.wall_ms"), Ok(9.0));
        assert_eq!(doc2.at("scale_20"), doc.at("scale_20"));
    }

    #[test]
    fn upsert_supersedes_legacy_single_scale_documents() {
        // A pre-multi-scale document has no "scale_N" keys: nothing to
        // preserve, the fresh block becomes the whole document.
        let legacy = "{\n  \"bench\": \"perf_baseline\",\n  \"scale\": 10,\n  \
                      \"pooled\": {\"wall_ms\": 26.897}\n}\n";
        let doc = upsert_block(legacy, "scale_10", sample().to_json()).expect("valid document");
        let fresh = upsert_block("", "scale_10", sample().to_json()).expect("fresh document");
        assert_eq!(doc, fresh);
        assert!(upsert_block("not json", "scale_10", sample().to_json()).is_err());
    }

    fn sample_serving() -> ServingRecord {
        ServingRecord {
            family: "RMAT-2".to_string(),
            scale: 10,
            ranks: 4,
            threads: 4,
            max_inflight: 4,
            queries: 24,
            peak_inflight: 4,
            distances_match: 1,
            cache_hits: 6,
            cache_misses: 18,
            p2p_epochs: 9,
            full_epochs: 31,
            panicked: 0,
            timed_out: 0,
            wall_ms: 180.0,
            queries_per_sec: 133.3,
        }
    }

    #[test]
    fn serving_json_roundtrips_through_extract() {
        let doc = json::parse(&sample_serving().to_json().render()).expect("parses");
        assert_eq!(doc, sample_serving().to_json());
        assert_eq!(doc.uint_at::<u64>("max_inflight"), Ok(4));
        assert_eq!(doc.uint_at::<u64>("queries"), Ok(24));
        assert_eq!(doc.uint_at::<u64>("peak_inflight"), Ok(4));
        assert_eq!(doc.uint_at::<u64>("distances_match"), Ok(1));
        assert_eq!(doc.uint_at::<u64>("cache_hits"), Ok(6));
        assert_eq!(doc.uint_at::<u64>("p2p_epochs"), Ok(9));
        assert_eq!(doc.uint_at::<u64>("full_epochs"), Ok(31));
        assert_eq!(doc.uint_at::<u64>("panicked"), Ok(0));
        assert_eq!(doc.uint_at::<u64>("timed_out"), Ok(0));
        assert_eq!(doc.f64_at("queries_per_sec"), Ok(133.3));
        let back = ServingRecord::from_json(&doc).expect("reads back");
        assert_eq!(back.to_json(), doc);
    }

    #[test]
    fn serving_problems_gate_the_structural_invariants() {
        assert!(sample_serving().problems().is_empty());

        let mut r = sample_serving();
        r.distances_match = 0;
        assert_eq!(r.problems().len(), 1);

        let mut r = sample_serving();
        r.peak_inflight = 2;
        let p = r.problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("admission bound"), "{p:?}");

        let mut r = sample_serving();
        r.p2p_epochs = r.full_epochs;
        let p = r.problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("saved nothing"), "{p:?}");

        let mut r = sample_serving();
        r.queries = 0;
        assert!(!r.problems().is_empty());

        let mut r = sample_serving();
        r.panicked = 1;
        let p = r.problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("panicked"), "{p:?}");

        let mut r = sample_serving();
        r.timed_out = 2;
        let p = r.problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("timed out"), "{p:?}");
    }

    #[test]
    fn serving_block_coexists_with_scale_blocks() {
        let doc = upsert_block("", "scale_10", sample().to_json()).expect("fresh document");
        let doc = upsert_block(&doc, "serving", sample_serving().to_json()).expect("valid");

        // Both block kinds survive each other's upserts.
        let mut twenty = sample();
        twenty.scale = 20;
        let doc2 = upsert_block(&doc, "scale_20", twenty.to_json()).expect("valid");
        let parsed = json::parse(&doc2).expect("parses");
        assert_eq!(parsed.at("serving"), Ok(&sample_serving().to_json()));
        assert_eq!(parsed.uint_at::<u64>("scale_20.scale"), Ok(20));
        let Json::Obj(members) = &parsed else {
            panic!("document is an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "scale_10", "scale_20", "serving"]);

        let mut sv2 = sample_serving();
        sv2.queries = 48;
        let doc3 = upsert_block(&doc2, "serving", sv2.to_json()).expect("valid");
        let parsed = json::parse(&doc3).expect("parses");
        assert_eq!(parsed.uint_at::<u64>("serving.queries"), Ok(48));
        assert_eq!(parsed.uint_at::<u64>("scale_10.scale"), Ok(10));
        assert_eq!(parsed.uint_at::<u64>("scale_20.scale"), Ok(20));
    }

    #[test]
    fn extract_missing_returns_none() {
        let doc = sample().to_json();
        assert_eq!(
            doc.f64_at("pooled.no_such_key"),
            Err("missing pooled.no_such_key".to_string())
        );
        assert!(doc.f64_at("no_such_object.wall_ms").is_err());
        // A key is only looked up inside its own object, never past it.
        assert!(doc.f64_at("pooled.buckets").is_err());
        assert!(json::parse("not json at all").is_err());
    }

    #[test]
    fn scale_check_reports_a_key_missing_from_its_own_block() {
        // Telemetry's remote_msgs sits right after the pooled record; the
        // lookup must not fall through to it.
        let doc = without(committed(), &["scale_20", "pooled", "remote_msgs"]);
        let mut current = sample();
        current.scale = 20;
        assert_eq!(
            missing_lines(current.check_against(&doc, 0.25)),
            ["committed baseline is missing pooled.remote_msgs"]
        );
        current.scale = 15;
        assert_eq!(
            current.check_against(&doc, 0.25),
            Err("committed baseline has no scale_15 block".to_string())
        );
    }

    #[test]
    fn serving_check_reports_a_key_missing_from_its_block() {
        let doc = without(committed(), &["serving", "queries"]);
        assert_eq!(
            sample_serving().check_against(&doc),
            Err("committed serving block: missing queries".to_string())
        );
        let doc = without(committed(), &["serving"]);
        assert_eq!(
            sample_serving().check_against(&doc),
            Err("committed baseline has no serving block".to_string())
        );
    }

    #[test]
    fn committed_baseline_has_every_gated_key() {
        // Every key the `--check` gates read is present and numeric: at
        // both committed scales (a renamed key would surface as a
        // "missing" problem) and in the serving block, which must read
        // back whole.
        let doc = committed();
        for scale in [10, 20] {
            let mut current = sample();
            current.scale = scale;
            assert_eq!(
                missing_lines(current.check_against(&doc, 0.25)),
                Vec::<String>::new()
            );
        }
        let serving = doc.at("serving").expect("committed serving block");
        assert_eq!(
            ServingRecord::from_json(serving).map(|r| r.to_json()),
            Ok(serving.clone())
        );
    }

    #[test]
    fn upsert_keeps_other_blocks_textually_identical() {
        let doc = committed();
        // Re-recording a block with its own values reproduces the file.
        for key in ["scale_10", "scale_20", "serving"] {
            let block = doc.at(key).expect("committed block").clone();
            assert_eq!(
                upsert_block(COMMITTED, key, block).as_deref(),
                Ok(COMMITTED)
            );
        }
        // Re-recording scale 10 leaves every other line as committed.
        let other_lines = |text: &str| -> Vec<String> {
            let mut in_scale_10 = false;
            let mut kept = Vec::new();
            for line in text.lines() {
                if line.starts_with("  \"") {
                    in_scale_10 = line.starts_with("  \"scale_10\"");
                }
                if !in_scale_10 {
                    kept.push(line.to_string());
                }
            }
            kept
        };
        let updated = upsert_block(COMMITTED, "scale_10", sample().to_json()).expect("valid");
        assert_ne!(updated, COMMITTED);
        assert_eq!(other_lines(&updated), other_lines(COMMITTED));
    }

    #[test]
    fn allocs_per_superstep_handles_zero() {
        let mut r = sample().pooled;
        r.supersteps = 0;
        assert_eq!(r.allocs_per_superstep(), 0.0);
        r.supersteps = 120;
        assert_eq!(r.allocs_per_superstep(), 4.0);
    }

    #[test]
    fn coalesced_fraction_handles_zero_traffic() {
        let mut r = sample().pooled;
        r.msgs = 0;
        r.coalesced_msgs = 0;
        assert_eq!(r.coalesced_fraction(), 0.0);
        let t = sample().threaded;
        assert_eq!(t.coalesced_fraction(), 10000.0 / 38000.0);
    }
}
