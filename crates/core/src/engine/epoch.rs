//! The SPMD epoch loop: the one Δ-stepping driver both backends run.
//!
//! A worker owns a block of ranks (`&mut [RankSlot]`) and runs
//! [`run_epochs`] over it, generic over the [`Transport`] that connects it
//! to the other workers and over the [`Recorder`] that observes it. The
//! loop folds each per-rank value across its own block; the transport
//! combines the folded values across workers:
//!
//! * the threaded backend runs one worker per rank, each on its own OS
//!   thread over a [`sssp_comm::threaded::RankCtx`];
//! * the simulator runs one worker that owns all `p` ranks over a
//!   [`sssp_comm::transport::SimWorld`], on the calling thread.
//!
//! Inboxes arrive in source-rank order on both transports and sender-side
//! packing leaves each lane sorted by `(target, nd)`, so both backends
//! apply the identical message sequence in the identical order: distances,
//! traces and schedules are bit-identical by construction.

use std::time::Instant;

use sssp_comm::cost::{MachineModel, TimeClass};
use sssp_comm::exchange::{fold_counts, pack_sorted_run, shrink_oversized};
use sssp_comm::stats::StepStats;
use sssp_comm::transport::{ExchangeCounts, Post, Transport};
use sssp_dist::DistGraph;
use sssp_graph::{checked_u32, VertexId};

use crate::config::{DirectionPolicy, LongPhaseMode, SsspConfig};
use crate::instrument::{BucketRecord, PhaseKind, PhaseRecord};
use crate::policy::{EpochWindow, PolicyDispatch, SteppingPolicy, WindowRule};
use crate::state::{RankState, INF};

use super::record::{Recorder, Row};
use super::{decide, invariants, kernels, resolved_pi, Query, RelaxMsg, ReqMsg};
use super::{RELAX_BYTES, REQ_BYTES};

/// The loop's one wire type, 16 bytes like the messages it carries: a
/// relax proposal `(target, nd)` or a pull request `(u_local, w,
/// origin)`. A superstep carries only one kind (the SPMD contract), so no
/// tag travels; the loop reads each inbox as the kind it sent.
#[derive(Debug, Clone, Copy)]
pub(super) struct Wire {
    /// Local index on the destination rank (relax target or requested u).
    local: u32,
    /// Edge weight of a request (unused by relax proposals).
    w: u32,
    /// Proposed distance of a relax, global origin id of a request.
    val: u64,
}

impl Wire {
    #[inline]
    fn from_relax(m: RelaxMsg) -> Wire {
        Wire {
            local: m.target,
            w: 0,
            val: m.nd,
        }
    }

    #[inline]
    fn from_req(m: ReqMsg) -> Wire {
        Wire {
            local: m.u_local,
            w: m.w,
            val: u64::from(m.origin),
        }
    }

    #[inline]
    fn relax(&self) -> RelaxMsg {
        RelaxMsg {
            target: self.local,
            nd: self.val,
        }
    }

    #[inline]
    fn req(&self) -> ReqMsg {
        ReqMsg {
            u_local: self.local,
            // Round-trips the `u64::from` of `from_req`.
            origin: checked_u32(self.val as usize),
            w: self.w,
        }
    }
}

/// Smallest high-water mark the pool bound shrinks against: lanes and
/// inboxes of up to 4× this capacity survive any epoch, however quiet.
const LANE_FLOOR: usize = 16;

/// One rank's relax traffic over a query, plus the pool high-water marks
/// of the current epoch and of the whole query.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Traffic {
    /// Relax messages that stayed on the sending rank (post-coalescing).
    pub(super) relax_local_msgs: u64,
    /// Relax messages that went on the wire (post-coalescing).
    pub(super) relax_remote_msgs: u64,
    /// Relax messages removed by sender-side coalescing.
    pub(super) coalesced_msgs: u64,
    hwm: usize,
    query_hwm: usize,
}

/// One rank's share of a worker's block: its state, outbox lanes, inboxes
/// and traffic counters. A serving layer keeps slots warm between queries.
pub(super) struct RankSlot {
    pub(super) st: RankState,
    pub(super) out: Vec<Vec<Wire>>,
    pub(super) inbox: Vec<Wire>,
    pub(super) req_inbox: Vec<Wire>,
    counts: ExchangeCounts,
    pub(super) traffic: Traffic,
}

impl RankSlot {
    /// Slot for rank `r` of `dg`: `prev` reset in place when it has this
    /// rank's shape (distances, bucket ring *including its base*, frontier
    /// stamps and spill lanes reset, every allocation kept), a fresh one
    /// otherwise.
    pub(super) fn reuse(prev: Option<RankSlot>, dg: &DistGraph, r: usize) -> RankSlot {
        let p = dg.num_ranks();
        let n_local = dg.part.local_count(r);
        match prev {
            Some(mut s) if s.st.rank == r && s.st.n_local() == n_local => {
                s.st.reset();
                s.out.iter_mut().for_each(Vec::clear);
                s.out.resize_with(p, Vec::new);
                s.inbox.clear();
                s.req_inbox.clear();
                s.traffic = Traffic::default();
                s
            }
            _ => RankSlot {
                st: RankState::new(r, n_local, dg.threads_per_rank),
                out: (0..p).map(|_| Vec::new()).collect(),
                inbox: Vec::new(),
                req_inbox: Vec::new(),
                counts: ExchangeCounts::default(),
                traffic: Traffic::default(),
            },
        }
    }

    /// The pool bound: release lanes and inboxes that ballooned past 4×
    /// the high-water mark `hwm`, never below [`LANE_FLOOR`], so a quiet
    /// epoch (hwm = 0) does not free every lane.
    fn shrink(&mut self, hwm: usize) {
        let floor = hwm.max(LANE_FLOOR);
        for lane in self.out.iter_mut() {
            shrink_oversized(lane, floor);
        }
        shrink_oversized(&mut self.inbox, floor);
        shrink_oversized(&mut self.req_inbox, floor);
    }

    /// Capacity of the largest lane or inbox this slot holds.
    pub(super) fn max_capacity(&self) -> usize {
        let inboxes = [self.inbox.capacity(), self.req_inbox.capacity()];
        self.out
            .iter()
            .map(Vec::capacity)
            .chain(inboxes)
            .max()
            .unwrap_or(0)
    }
}

fn relax_post(s: &mut RankSlot) -> Post<'_, Wire> {
    Post {
        out: &mut s.out,
        inbox: &mut s.inbox,
        counts: &mut s.counts,
    }
}

fn req_post(s: &mut RankSlot) -> Post<'_, Wire> {
    Post {
        out: &mut s.out,
        inbox: &mut s.req_inbox,
        counts: &mut s.counts,
    }
}

/// Wall-clock nanoseconds since `start`, saturated into a `u64` (580 years
/// of headroom — the cast can only be reached by a clock bug).
#[inline]
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How a worker's loop ended.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct LoopEnd {
    /// Epoch-select rounds performed (identical on every worker).
    pub(super) epochs: u64,
    /// The loop stopped at the query's deadline.
    pub(super) timed_out: bool,
}

/// Run one query's epoch loop over `block`, the ranks `ctx` says this
/// worker owns. `query.seeds` must already be canonical (see
/// [`super::canonical_seeds`]).
pub(super) fn run_epochs<T: Transport<Wire>, R: Recorder>(
    dg: &DistGraph,
    cfg: &SsspConfig,
    model: &MachineModel,
    query: &Query,
    ctx: &mut T,
    rec: &mut R,
    block: &mut [RankSlot],
) -> LoopEnd {
    let policy = PolicyDispatch::from_config(cfg, ctx.num_ranks());
    let pi = resolved_pi(cfg.intra_balance, dg.m_directed, dg.num_vertices() as u64);
    Worker {
        dg,
        cfg,
        model,
        policy,
        pi,
        ctx,
        rec,
        block,
    }
    .run(query)
}

/// One worker's view of the run.
struct Worker<'a, T, R> {
    dg: &'a DistGraph,
    cfg: &'a SsspConfig,
    model: &'a MachineModel,
    /// The run's stepping policy, resolved once from the config.
    policy: PolicyDispatch,
    /// Resolved intra-node balancing threshold π (`u64::MAX` = off).
    pi: u64,
    ctx: &'a mut T,
    rec: &'a mut R,
    block: &'a mut [RankSlot],
}

impl<T: Transport<Wire>, R: Recorder> Worker<'_, T, R> {
    /// The epoch loop: bucket collectives, repeated inner-short phases,
    /// the per-bucket §III-C push/pull decision and the τ-triggered
    /// Bellman-Ford tail.
    // sssp-lint: protocol-entry(spmd)
    fn run(&mut self, query: &Query) -> LoopEnd {
        let dg = self.dg;
        let part = &dg.part;
        let n_total = dg.num_vertices() as u64;

        // Global weight extremes: a scan over the block's weight-sorted
        // rows, combined by two collectives. Degenerate (edgeless) graphs
        // collapse to (0, 0) so the sentinels never reach eq. 1.
        let (mut w_lo, mut w_hi) = (u64::from(u32::MAX), 0u64);
        for s in self.block.iter() {
            let lg = &dg.locals[s.st.rank];
            for v in 0..lg.num_local() {
                let (_, ws) = lg.row(v);
                if let (Some(&first), Some(&last)) = (ws.first(), ws.last()) {
                    w_lo = w_lo.min(first as u64);
                    w_hi = w_hi.max(last as u64);
                }
            }
        }
        // sssp-lint: protocol: setup.weight-extremes
        let mut min_weight = self.ctx.allreduce_min(w_lo);
        let mut max_weight = self.ctx.allreduce_max(w_hi);
        self.rec.collective(Row::Setup);
        if dg.m_directed == 0 {
            min_weight = 0;
            max_weight = 0;
        }
        // Whether any short edge exists at all (lets the Dijkstra
        // configuration skip its necessarily-empty short stages).
        let has_short = dg.m_directed > 0 && min_weight < self.policy.short_bound();

        let owned = self.ctx.ranks();
        for s in self.block.iter_mut() {
            s.st.begin_phase();
        }
        for &(v, d) in &query.seeds {
            let owner = part.owner(v);
            if owned.contains(&owner) {
                let st = &mut self.block[owner - owned.start].st;
                st.relax(part.local_index(v), d, &self.policy);
            }
        }

        let mut k_prev: Option<u64> = None;
        let mut settled_total = 0u64;
        let mut buckets_done = 0usize;
        let mut epoch = 0u64;
        let mut timed_out = false;

        loop {
            // Epoch tag for the schedule fingerprint (setup was epoch 0).
            epoch += 1;
            self.ctx.set_epoch(epoch);
            self.rec.epoch(epoch);

            // Bucket collective: smallest nonempty bucket across all ranks.
            // sssp-lint: protocol: epoch.select
            let k = self.select(k_prev);
            if k == u64::MAX {
                break;
            }
            invariants::check_epoch_monotone(k, k_prev);
            // Slide the flat bucket rings up to the epoch's bucket before
            // anything queries them (window proposals included); every
            // later query of the epoch is at or above `k`.
            for s in self.block.iter_mut() {
                s.st.advance_frontier(k);
            }

            // Point-to-point early termination: every unsettled vertex now
            // sits in bucket >= k, so any relaxation a future epoch can
            // produce lands at distance >= start_dist of the k-window (kΔ
            // for finite delta, k for rho/radius, 0 — never early — for
            // infinite delta). Once the target's tentative distance is at
            // or below that bound it is final and the run may stop. Safe
            // under all three policies because the bound is the policy's
            // own `window_for`.
            if let Some(tv) = query.target {
                // sssp-lint: protocol: epoch.target-cutoff
                let td = self.target_distance(tv);
                if td <= self.policy.window_for(k, k).start_dist {
                    break;
                }
            }

            // Per-query deadline: one cheap collective per epoch, between
            // bucket selection and the epoch's first exchange, so a run
            // never starts a superstep it is not allowed to finish. The
            // deadline is fixed at entry and the verdict is a collective,
            // so every worker stops at the same epoch — a timed-out rank
            // can never wedge a peer mid-rendezvous.
            if let Some(deadline) = query.deadline {
                let expired = Instant::now() >= deadline;
                // sssp-lint: protocol: epoch.deadline
                let stop = self.ctx.any(expired);
                self.rec.collective(Row::Deadline);
                if stop {
                    timed_out = true;
                    break;
                }
            }

            // Hybrid switch (§III-D): merge the remaining buckets and
            // finish with Bellman-Ford rounds.
            if let (Some(tau), Some(kp)) = (self.cfg.hybrid_tau, k_prev) {
                if decide::hybrid_should_switch(tau, settled_total, n_total) {
                    self.rec.hybrid_switch(kp);
                    self.bellman_ford_tail(kp);
                    break;
                }
            }

            // Window selection: policies that process more than one bucket
            // per epoch reduce their window proposals through the window
            // collective; Δ-stepping's single-bucket rule issues none.
            let window = match self.policy.window_rule() {
                WindowRule::SingleBucket => self.policy.window_for(k, k),
                WindowRule::RhoPrefix => {
                    // sssp-lint: protocol: epoch.window-rho
                    let hi = self.window_end(k);
                    self.policy.window_for(k, hi)
                }
                WindowRule::RadiusBall => {
                    // sssp-lint: protocol: epoch.window-radius
                    let hi = self.window_end(k);
                    self.policy.window_for(k, hi)
                }
            };

            // Stage 1: repeated inner-short phases.
            self.collect_window(&window);
            if has_short {
                let short_start = Instant::now();
                // sssp-lint: protocol: short.active-any
                while self.any_active() {
                    // sssp-lint: protocol: short.exchange-relax
                    self.short_phase(&window);
                }
                self.rec
                    .phase_nanos(PhaseKind::Short, elapsed_ns(short_start));
            }

            // Stage 2: long-edge phase, push or pull.
            // sssp-lint: protocol: decide.estimates
            let (mode, est_push, est_pull) = self.decide(&window, max_weight, buckets_done);
            let mut record = BucketRecord {
                bucket: window.lo,
                settled: 0,
                mode,
                est_push,
                est_pull,
                self_edges: 0,
                backward_edges: 0,
                forward_edges: 0,
                requests: 0,
                responses: 0,
                supersteps: 0,
                local_msgs: 0,
                remote_msgs: 0,
                coalesced_msgs: 0,
            };
            match mode {
                LongPhaseMode::Push => self.long_push(&window, &mut record),
                LongPhaseMode::Pull => self.long_pull(&window, &mut record),
            }
            self.rec.bucket(record);

            // Settled-count collective (drives the hybrid switch; the paper
            // computes it at every epoch end). A window epoch settles its
            // whole bucket range.
            // sssp-lint: protocol: epoch.settle
            let settled_k = self.settle(&window);
            settled_total += settled_k;
            self.rec.settled(settled_k);
            // The next epoch starts past the *window*, not the selected
            // bucket — everything inside `[lo, hi]` is settled now.
            k_prev = Some(window.hi);
            buckets_done += 1;

            // Epoch-boundary pool bound: release lanes and inboxes that
            // ballooned past 4× this epoch's high-water mark, so a one-off
            // giant superstep cannot pin memory for the rest of the run.
            for s in self.block.iter_mut() {
                s.shrink(s.traffic.hwm);
                s.traffic.query_hwm = s.traffic.query_hwm.max(s.traffic.hwm);
                s.traffic.hwm = 0;
            }
            self.ctx.end_epoch();
        }

        // Query-end pool bound against the whole query's high-water mark
        // (not just the last, possibly quiet, epoch's): buffers a large
        // query ballooned are released before a small successor inherits
        // the pool.
        for s in self.block.iter_mut() {
            s.traffic.query_hwm = s.traffic.query_hwm.max(s.traffic.hwm);
            s.shrink(s.traffic.query_hwm);
        }
        self.rec.finish();
        LoopEnd {
            epochs: epoch,
            timed_out,
        }
    }

    // -- collectives ---------------------------------------------------------

    fn select(&mut self, after: Option<u64>) -> u64 {
        let local = self
            .block
            .iter()
            .map(|s| s.st.next_nonempty_after(after).unwrap_or(u64::MAX))
            .min()
            .unwrap_or(u64::MAX);
        let k = self.ctx.allreduce_min(local);
        self.rec.collective(Row::Select);
        k
    }

    /// The point-to-point cutoff collective: the target's owner
    /// contributes its tentative distance, every other rank INF.
    fn target_distance(&mut self, tv: VertexId) -> u64 {
        let part = &self.dg.part;
        let (owner, local) = (part.owner(tv), part.local_index(tv) as usize);
        let td_local = self
            .block
            .iter()
            .find(|s| s.st.rank == owner)
            .map_or(INF, |s| s.st.dist[local]);
        let td = self.ctx.allreduce_min(td_local);
        self.rec.collective(Row::TargetCutoff);
        td
    }

    /// The window-selection collective: min-reduce the per-rank window
    /// proposals for the epoch starting at bucket `k`.
    fn window_end(&mut self, k: u64) -> u64 {
        let (policy, dg) = (&self.policy, self.dg);
        let local = self
            .block
            .iter()
            .map(|s| policy.window_proposal(&s.st, &dg.locals[s.st.rank], k))
            .min()
            .unwrap_or(u64::MAX);
        let hi = self.ctx.allreduce_min_window(local);
        self.rec.collective(Row::Window);
        hi
    }

    fn any_active(&mut self) -> bool {
        let local = self.block.iter().any(|s| !s.st.active.is_empty());
        let any = self.ctx.any(local);
        self.rec.collective(Row::ActiveAny);
        any
    }

    fn settle(&mut self, window: &EpochWindow) -> u64 {
        let local = self
            .block
            .iter()
            .map(|s| s.st.window_count(window.lo, window.hi))
            .sum();
        let settled = self.ctx.allreduce_sum(local);
        self.rec.collective(Row::Settle);
        settled
    }

    /// The §III-C decision: rank-local volume estimates folded over the
    /// block, reduced through five collectives, then the shared
    /// totals→decision arithmetic. Always policies skip the collectives
    /// uniformly; a `Forced` bucket skips them too — except under a
    /// recording recorder, where the volume pass still runs so telemetry
    /// shows what the heuristic would have seen. [`Recorder::enabled`] is
    /// uniform across workers, so the schedule stays aligned either way.
    fn decide(
        &mut self,
        window: &EpochWindow,
        max_weight: u64,
        buckets_done: usize,
    ) -> (LongPhaseMode, u64, u64) {
        let cfg = self.cfg;
        let heuristic = |me: &mut Self| -> (LongPhaseMode, u64, u64) {
            let (mut push_total, mut pull_total) = (0u64, 0u64);
            let (mut push_max, mut pull_max, mut scan_max) = (0u64, 0u64, 0u64);
            for s in me.block.iter() {
                let lg = &me.dg.locals[s.st.rank];
                let (push, pull, scanned) = decide::rank_volumes(
                    lg,
                    &s.st,
                    window,
                    cfg.ios,
                    cfg.pull_estimator,
                    max_weight,
                );
                push_total += push;
                pull_total += pull;
                push_max = push_max.max(push);
                pull_max = pull_max.max(pull);
                scan_max = scan_max.max(scanned);
            }
            let push_total = me.ctx.allreduce_sum(push_total);
            let pull_total = me.ctx.allreduce_sum(pull_total);
            let push_max = me.ctx.allreduce_max(push_max);
            let pull_max = me.ctx.allreduce_max(pull_max);
            let scan_max = me.ctx.allreduce_max(scan_max);
            me.rec.collective(Row::Decide);
            let p = me.ctx.num_ranks();
            decide::decide_from_totals(
                cfg, me.model, p, push_total, pull_total, push_max, pull_max, scan_max,
            )
        };
        match &cfg.direction {
            DirectionPolicy::AlwaysPush => (LongPhaseMode::Push, 0, 0),
            DirectionPolicy::AlwaysPull => (LongPhaseMode::Pull, 0, 0),
            DirectionPolicy::Heuristic => heuristic(self),
            DirectionPolicy::Forced(seq) => match seq.get(buckets_done) {
                Some(&mode) if self.rec.enabled() => {
                    let (_, est_push, est_pull) = heuristic(self);
                    (mode, est_push, est_pull)
                }
                Some(&mode) => (mode, 0, 0),
                None => heuristic(self),
            },
        }
    }

    // -- supersteps ----------------------------------------------------------

    fn begin_superstep(&mut self) {
        for s in self.block.iter_mut() {
            s.st.begin_phase();
            s.st.loads.reset();
        }
    }

    /// Exchange the block's lanes through the transport and fold the
    /// per-rank counts into the worker's share of the step record.
    fn deliver<P>(&mut self, post: P, msg_bytes: usize) -> StepStats
    where
        P: Fn(&mut RankSlot) -> Post<'_, Wire>,
    {
        for s in self.block.iter_mut() {
            for lane in &s.out {
                s.traffic.hwm = s.traffic.hwm.max(lane.len());
            }
        }
        let packet = self.model.packet.as_ref();
        self.ctx.exchange(self.block, &post, msg_bytes, packet);
        for s in self.block.iter_mut() {
            let received = post(s).inbox.len();
            s.traffic.hwm = s.traffic.hwm.max(received);
        }
        fold_counts(self.block.iter().map(|s| &s.counts))
    }

    /// Pack (and, when enabled, coalesce) every relax lane into one
    /// target-sorted run, so the receiver applies it as a sequential
    /// min-merge, then exchange. Only the smallest tentative distance per
    /// target crosses the wire under coalescing; the removed-message count
    /// rides on the returned step record.
    fn exchange_relax(&mut self) -> StepStats {
        let dedup = self.cfg.coalescing;
        let mut saved = 0u64;
        for s in self.block.iter_mut() {
            let mut rank_saved = 0u64;
            for lane in s.out.iter_mut() {
                rank_saved += pack_sorted_run(lane, |m| m.local, |m| m.val, dedup);
            }
            s.traffic.coalesced_msgs += rank_saved;
            saved += rank_saved;
        }
        let mut step = self.deliver(relax_post, RELAX_BYTES);
        for s in self.block.iter_mut() {
            s.traffic.relax_local_msgs += s.counts.sent_local;
            s.traffic.relax_remote_msgs += s.counts.sent_remote;
        }
        step.coalesced_msgs = saved;
        step
    }

    /// Hand a finished superstep to the recorder, with the busiest
    /// thread's operation count across the block.
    fn record_superstep(&mut self, step: &StepStats) {
        let ops = if self.rec.enabled() {
            self.block
                .iter()
                .map(|s| s.st.loads.max())
                .max()
                .unwrap_or(0)
        } else {
            0
        };
        self.rec.superstep(step, ops);
    }

    /// Collect the epoch's initial active set from the window, and record
    /// the bookkeeping scan that took.
    fn collect_window(&mut self, window: &EpochWindow) {
        for s in self.block.iter_mut() {
            s.st.collect_active_from_window(window.lo, window.hi);
        }
        if self.rec.enabled() {
            let scan_max = self
                .block
                .iter()
                .map(|s| s.st.window_scan_len(window.lo, window.hi) as u64)
                .max()
                .unwrap_or(0);
            self.rec.scan(TimeClass::Bucket, scan_max);
        }
    }

    // -- phases --------------------------------------------------------------

    /// One short-edge phase (§II / §III-A): relax the (inner) short edges
    /// of the active vertices; the next active set is the changed
    /// vertices now inside the window.
    fn short_phase(&mut self, window: &EpochWindow) {
        self.begin_superstep();
        let (dg, ios, pi) = (self.dg, self.cfg.ios, self.pi);
        let mut sent = 0u64;
        for s in self.block.iter_mut() {
            let lg = &dg.locals[s.st.rank];
            let out = &mut s.out;
            sent += kernels::short_send(lg, &dg.part, &mut s.st, window, ios, pi, &mut |dst, m| {
                out[dst].push(Wire::from_relax(m))
            });
        }
        let step = self.exchange_relax();
        for s in self.block.iter_mut() {
            kernels::apply_relax(&mut s.st, &self.policy, s.inbox.iter().map(Wire::relax));
            s.st.collect_active_changed_in_window(window.lo, window.hi);
        }
        self.record_superstep(&step);
        let phase = PhaseRecord {
            bucket: window.lo,
            kind: PhaseKind::Short,
            relaxations: sent,
            remote_msgs: step.remote_msgs,
        };
        self.rec.phase(&phase, 0);
    }

    /// Push-mode long phase (§III-B): every vertex settled in the window
    /// relaxes its long (and, under IOS, outer-short) edges outward, with
    /// receiver-side self/backward/forward classification for Fig 7.
    fn long_push(&mut self, window: &EpochWindow, record: &mut BucketRecord) {
        let start = Instant::now();
        self.begin_superstep();
        let (dg, ios, pi) = (self.dg, self.cfg.ios, self.pi);
        let (mut outer, mut long) = (0u64, 0u64);
        for s in self.block.iter_mut() {
            let lg = &dg.locals[s.st.rank];
            let out = &mut s.out;
            let (o, l) =
                kernels::long_push_send(lg, &dg.part, &mut s.st, window, ios, pi, &mut |dst, m| {
                    out[dst].push(Wire::from_relax(m))
                });
            outer += o;
            long += l;
        }
        // sssp-lint: protocol: long-push.exchange-relax
        let step = self.exchange_relax();
        for s in self.block.iter_mut() {
            let msgs = s.inbox.iter().map(Wire::relax);
            let (se, be, fe) = kernels::classify_apply_relax(&mut s.st, window, &self.policy, msgs);
            record.self_edges += se;
            record.backward_edges += be;
            record.forward_edges += fe;
        }
        self.record_superstep(&step);
        let phase = PhaseRecord {
            bucket: window.lo,
            kind: PhaseKind::LongPush,
            relaxations: outer + long,
            remote_msgs: step.remote_msgs,
        };
        self.rec.phase(&phase, outer);
        self.rec.phase_nanos(PhaseKind::LongPush, elapsed_ns(start));
    }

    /// Pull-mode long phase (§III-B): unsettled vertices request along
    /// long edges satisfying `w < d(v) − kΔ` (eq. 1); only sources settled
    /// in the window respond. Under IOS the window's outer short edges are
    /// pushed in a preliminary sub-step (requests only cover long edges).
    fn long_pull(&mut self, window: &EpochWindow, record: &mut BucketRecord) {
        let start = Instant::now();
        let (dg, pi) = (self.dg, self.pi);
        let mut phase_relax = 0u64;
        let mut phase_remote = 0u64;
        let mut outer = 0u64;
        if self.cfg.ios {
            self.begin_superstep();
            for s in self.block.iter_mut() {
                let lg = &dg.locals[s.st.rank];
                let out = &mut s.out;
                outer += kernels::outer_short_send(
                    lg,
                    &dg.part,
                    &mut s.st,
                    window,
                    pi,
                    &mut |dst, m| out[dst].push(Wire::from_relax(m)),
                );
            }
            // sssp-lint: protocol: long-pull.ios-outer-short
            let step = self.exchange_relax();
            for s in self.block.iter_mut() {
                kernels::apply_relax(&mut s.st, &self.policy, s.inbox.iter().map(Wire::relax));
            }
            self.record_superstep(&step);
            phase_relax += outer;
            phase_remote += step.remote_msgs;
        }

        // Requests are never coalesced — each one expects its own response.
        self.begin_superstep();
        let (mut req_total, mut scan_max) = (0u64, 0u64);
        for s in self.block.iter_mut() {
            let lg = &dg.locals[s.st.rank];
            let out = &mut s.out;
            let (reqs, scanned) =
                kernels::pull_request_send(lg, &dg.part, &mut s.st, window, pi, &mut |dst, m| {
                    out[dst].push(Wire::from_req(m))
                });
            req_total += reqs;
            scan_max = scan_max.max(scanned);
        }
        self.rec.scan(TimeClass::Relax, scan_max);
        // sssp-lint: protocol: long-pull.requests
        let req_step = self.deliver(req_post, REQ_BYTES);
        self.record_superstep(&req_step);
        phase_remote += req_step.remote_msgs;

        self.begin_superstep();
        let mut resp_total = 0u64;
        for s in self.block.iter_mut() {
            let out = &mut s.out;
            let reqs = s.req_inbox.iter().map(Wire::req);
            resp_total +=
                kernels::pull_respond(&dg.part, &mut s.st, window, reqs, &mut |dst, m| {
                    out[dst].push(Wire::from_relax(m))
                });
        }
        // sssp-lint: protocol: long-pull.responses
        let resp_step = self.exchange_relax();
        for s in self.block.iter_mut() {
            kernels::apply_relax(&mut s.st, &self.policy, s.inbox.iter().map(Wire::relax));
        }
        self.record_superstep(&resp_step);
        phase_remote += resp_step.remote_msgs;

        record.requests = req_total;
        record.responses = resp_total;
        phase_relax += req_total + resp_total;
        let phase = PhaseRecord {
            bucket: window.lo,
            kind: PhaseKind::LongPull,
            relaxations: phase_relax,
            remote_msgs: phase_remote,
        };
        self.rec.phase(&phase, outer);
        self.rec.phase_nanos(PhaseKind::LongPull, elapsed_ns(start));
    }

    /// The hybrid tail (§III-D): all remaining buckets merge and finish
    /// with Bellman-Ford rounds that relax every edge of every active
    /// vertex, starting from the unsettled vertices past bucket `k_last`.
    fn bellman_ford_tail(&mut self, k_last: u64) {
        let (dg, pi) = (self.dg, self.pi);
        for s in self.block.iter_mut() {
            s.st.collect_active_unsettled(k_last);
        }
        let start = Instant::now();
        // sssp-lint: protocol: bf-tail.active-any
        while self.any_active() {
            self.begin_superstep();
            let mut sent = 0u64;
            for s in self.block.iter_mut() {
                let lg = &dg.locals[s.st.rank];
                let out = &mut s.out;
                sent += kernels::bf_send(lg, &dg.part, &mut s.st, pi, &mut |dst, m| {
                    out[dst].push(Wire::from_relax(m))
                });
            }
            // sssp-lint: protocol: bf-tail.exchange-relax
            let step = self.exchange_relax();
            for s in self.block.iter_mut() {
                kernels::apply_relax(&mut s.st, &self.policy, s.inbox.iter().map(Wire::relax));
                // Next round's frontier: the vertices this round improved.
                s.st.collect_active_changed();
            }
            self.record_superstep(&step);
            let phase = PhaseRecord {
                bucket: u64::MAX,
                kind: PhaseKind::BellmanFord,
                relaxations: sent,
                remote_msgs: step.remote_msgs,
            };
            self.rec.phase(&phase, 0);
        }
        self.rec
            .phase_nanos(PhaseKind::BellmanFord, elapsed_ns(start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssp_graph::{gen, CsrBuilder};

    #[test]
    fn quiet_epoch_shrink_keeps_lanes_at_the_floor() {
        // A quiet epoch has high-water mark 0: the bound must neither free
        // the warm lanes (the next busy epoch would reallocate them) nor
        // keep a ballooned one past the floor.
        let g = CsrBuilder::new().build(&gen::path(8, 1));
        let dg = DistGraph::build(&g, 2, 1);
        let mut s = RankSlot::reuse(None, &dg, 0);
        s.out[0].reserve_exact(4 * LANE_FLOOR);
        s.out[1].reserve_exact(1000);
        s.inbox.reserve_exact(1000);
        s.shrink(0);
        assert!(s.out[0].capacity() >= 4 * LANE_FLOOR, "warm lane freed");
        for buf in [&s.out[1], &s.inbox] {
            assert!(
                (LANE_FLOOR..=4 * LANE_FLOOR).contains(&buf.capacity()),
                "ballooned buffer not shrunk to the floor: {}",
                buf.capacity()
            );
        }
        assert!(s.max_capacity() <= 4 * LANE_FLOOR);
    }
}
