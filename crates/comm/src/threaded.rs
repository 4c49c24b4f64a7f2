//! The real-thread transport: one OS thread per rank, exchanging messages
//! through channels, with no shared mutable state beyond the collective
//! rendezvous.
//!
//! [`RankCtx`] implements [`Transport`] for a one-rank block, so the SPMD
//! epoch loop in `sssp-core` (`engine/epoch.rs`) runs unchanged on actual
//! threads and on the simulator's [`crate::transport::SimWorld`]; the
//! differential tests pin the two bit-identical — evidence that the
//! simulator's semantics match a real distributed execution.
//!
//! Determinism under true concurrency comes from the same rule real MPI
//! programs use: inboxes are ordered by source rank, never by arrival
//! time.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};

use crate::fingerprint::{
    fp_mix, FP_EXCHANGE, FP_REDUCE_ANY, FP_REDUCE_MAX, FP_REDUCE_MIN, FP_REDUCE_SUM, FP_WINDOW,
};
use crate::lockorder;
use crate::packet::PacketConfig;
use crate::transport::{wire_bytes, ExchangeCounts, Post, Transport};
use crate::Rank;

/// Per-rank context handed to the rank's thread. `M` is the message type
/// of this world.
pub struct RankCtx<M> {
    rank: Rank,
    p: usize,
    /// `senders[dst]` — shared producer side of dst's inbox channel.
    senders: Vec<Sender<(Rank, Vec<M>)>>,
    inbox: Receiver<(Rank, Vec<M>)>,
    barrier: Arc<Barrier>,
    /// Rendezvous buffer for collectives (one slot per rank).
    slots: Arc<Mutex<Vec<Option<u64>>>>,
    /// Rolling collective-schedule fingerprint (see [`crate::fingerprint`]).
    fp: u64,
    /// Epoch tag mixed into the fingerprint; advanced by the loop through
    /// [`Transport::set_epoch`] at bucket boundaries.
    epoch: u64,
    /// Runtime twin of the static lock-order model: records this thread's
    /// actual acquisition order and checks it against
    /// [`lockorder::STATIC_EDGES`] when the context is dropped.
    lock_rec: lockorder::Recorder,
}

impl<M: Send> RankCtx<M> {
    #[inline]
    /// This thread’s rank id.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Fold one collective of `kind` into this rank's schedule fingerprint.
    #[inline]
    fn note_collective(&mut self, kind: u64) {
        self.fp = fp_mix(self.fp, kind, self.epoch);
    }

    /// This rank's rolling collective-schedule fingerprint.
    pub fn schedule_fingerprint(&self) -> u64 {
        self.fp
    }

    /// Debug-build cross-rank check that every rank has executed the same
    /// collective schedule: min- and max-reduce the fingerprints and assert
    /// they agree. A no-op in release builds. The gate is compile-time
    /// uniform across ranks (all threads run the same binary), so the extra
    /// collectives cannot themselves skew the schedule.
    pub fn assert_schedule_uniform(&self) {
        #[cfg(debug_assertions)]
        {
            let fp = self.fp;
            let lo = self.allreduce_inner(fp, |vals| vals.iter().copied().min().unwrap_or(0));
            let hi = self.allreduce_inner(fp, |vals| vals.iter().copied().max().unwrap_or(0));
            assert_eq!(
                lo, hi,
                "collective schedule diverged across ranks (rank {} fp {fp:#018x}, epoch {})",
                self.rank, self.epoch
            );
        }
    }

    /// Test hook: xor `salt` into this rank's fingerprint so differential
    /// tests can prove [`RankCtx::assert_schedule_uniform`] actually fires.
    #[cfg(debug_assertions)]
    pub fn perturb_fingerprint(&mut self, salt: u64) {
        self.fp ^= salt;
    }

    /// Test hook: seed a held→acquired pair into the runtime lock-order
    /// twin, as if this rank had nested the two acquisitions, so
    /// differential tests can prove the drop-time consistency check fires.
    #[cfg(debug_assertions)]
    pub fn perturb_lock_order(&self, from: &'static str, to: &'static str) {
        self.lock_rec.inject_pair(from, to);
    }

    /// Every held→acquired pair the runtime twin has observed on this rank
    /// thread so far (sorted). Empty in a correct run: the rendezvous
    /// runtime never nests lock acquisitions.
    #[cfg(debug_assertions)]
    pub fn observed_lock_pairs(&self) -> Vec<(&'static str, &'static str)> {
        self.lock_rec.observed_pairs()
    }

    /// Every lock name the runtime twin has observed this rank thread
    /// acquire so far (sorted).
    #[cfg(debug_assertions)]
    pub fn observed_locks(&self) -> Vec<&'static str> {
        self.lock_rec.observed_locks()
    }

    /// Bulk-synchronous exchange of this rank's outbox lanes: each lane
    /// `out[dst]` itself travels to `dst` through the channel, and the
    /// batch received from `src` takes the place of `out[src]`. The lanes
    /// are then appended to `inbox` in source-rank order — the same
    /// source-order transpose [`crate::transport::SimWorld`] performs in
    /// memory — which leaves every lane empty with its capacity intact.
    /// The lanes are the only exchange buffers, so after a warm-up
    /// superstep the steady state allocates nothing, and the caller's
    /// pool bound on its lanes governs every buffer that crosses a channel.
    ///
    /// Returns per-rank transport accounting: how many messages this rank
    /// kept local vs. put on the wire, and the framed byte volume it sent
    /// and received, under the same `msg_bytes`/`packet` wire model the
    /// simulator's [`crate::transport::SimWorld`] charges.
    pub fn exchange_pooled_counted(
        &mut self,
        out: &mut [Vec<M>],
        inbox: &mut Vec<M>,
        msg_bytes: usize,
        packet: Option<&PacketConfig>,
    ) -> ExchangeCounts {
        assert_eq!(out.len(), self.p, "outbox fan-out mismatch");
        self.note_collective(FP_EXCHANGE);
        let wire = |count: u64| wire_bytes(count, msg_bytes, packet);
        let mut counts = ExchangeCounts::default();
        for (dst, lane) in out.iter_mut().enumerate() {
            let k = lane.len() as u64;
            if dst == self.rank {
                counts.sent_local += k;
            } else {
                counts.sent_remote += k;
                counts.sent_remote_bytes += wire(k);
            }
            // A peer disappearing mid-superstep is unrecoverable by design
            // (SPMD contract), hence the allowed panic below.
            self.senders[dst]
                .send((self.rank, std::mem::take(lane)))
                .expect("peer hung up"); // sssp-lint: allow(no-panic-hot-path): SPMD contract
        }
        // The closing barrier of the previous exchange keeps every rank
        // from sending ahead, so these are exactly one batch per source.
        for _ in 0..self.p {
            // sssp-lint: allow(no-panic-hot-path): same SPMD contract as above.
            let (src, batch) = self.inbox.recv().expect("peer hung up");
            if src != self.rank {
                counts.recv_remote_bytes += wire(batch.len() as u64);
            }
            out[src] = batch;
        }
        inbox.clear();
        for lane in out.iter_mut() {
            inbox.append(lane);
        }
        self.barrier.wait();
        counts
    }

    /// The collective rendezvous: every rank deposits `value`, and every
    /// rank receives `combine` over all contributions in rank order. It
    /// does not touch the fingerprint, so the [`Transport`] collectives mix
    /// their own kind codes first and [`RankCtx::assert_schedule_uniform`]'s
    /// meta-collectives do not perturb the fingerprint they are checking.
    fn allreduce_inner<F: Fn(&[u64]) -> u64>(&self, value: u64, combine: F) -> u64 {
        {
            let mut slots = self.lock_rec.track(
                "slots",
                // sssp-lint: allow(no-panic-hot-path, panic-silent-poison): poisoned = a
                // rank already panicked; die-on-poison is the correct SPMD behavior —
                // recovering the guard would hang the rendezvous on the dead rank.
                self.slots.lock().expect("collective mutex poisoned"),
            );
            slots[self.rank] = Some(value);
        }
        self.barrier.wait();
        let result = {
            let slots = self.lock_rec.track(
                "slots",
                // sssp-lint: allow(no-panic-hot-path, panic-silent-poison): see poisoning note above.
                self.slots.lock().expect("collective mutex poisoned"),
            );
            // Every rank filled its slot before the barrier; a hole means
            // the barrier itself is broken, hence the allowed panic below.
            let vals: Vec<u64> = slots
                .iter()
                .map(|s| s.expect("missing contribution")) // sssp-lint: allow(no-panic-hot-path, panic-in-critical-section): barrier guarantees slots; a hole is unrecoverable
                .collect();
            combine(&vals)
        };
        // Second barrier before anyone clears their slot for reuse.
        self.barrier.wait();
        {
            let mut slots = self.lock_rec.track(
                "slots",
                // sssp-lint: allow(no-panic-hot-path, panic-silent-poison): see poisoning note above.
                self.slots.lock().expect("collective mutex poisoned"),
            );
            slots[self.rank] = None;
        }
        self.barrier.wait();
        result
    }

    /// A fingerprinted collective of `kind`.
    fn reduce<F: Fn(&[u64]) -> u64>(&mut self, kind: u64, value: u64, combine: F) -> u64 {
        self.note_collective(kind);
        self.allreduce_inner(value, combine)
    }
}

/// A rank thread is a worker owning exactly one rank: the loop's fold over
/// its block is the rank's own value, and every collective is the
/// rendezvous above.
impl<M: Send> Transport<M> for RankCtx<M> {
    fn num_ranks(&self) -> usize {
        self.p
    }

    fn ranks(&self) -> std::ops::Range<usize> {
        self.rank..self.rank + 1
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    fn exchange<S, P>(
        &mut self,
        block: &mut [S],
        post: P,
        msg_bytes: usize,
        packet: Option<&PacketConfig>,
    ) where
        P: Fn(&mut S) -> Post<'_, M>,
    {
        assert_eq!(block.len(), 1, "a rank thread owns exactly one rank");
        let pst = post(&mut block[0]);
        *pst.counts = self.exchange_pooled_counted(pst.out, pst.inbox, msg_bytes, packet);
    }

    fn allreduce_min(&mut self, value: u64) -> u64 {
        self.reduce(FP_REDUCE_MIN, value, |vals| {
            vals.iter().copied().min().unwrap_or(u64::MAX)
        })
    }

    fn allreduce_min_window(&mut self, value: u64) -> u64 {
        self.reduce(FP_WINDOW, value, |vals| {
            vals.iter().copied().min().unwrap_or(u64::MAX)
        })
    }

    fn allreduce_max(&mut self, value: u64) -> u64 {
        self.reduce(FP_REDUCE_MAX, value, |vals| {
            vals.iter().copied().max().unwrap_or(0)
        })
    }

    fn allreduce_sum(&mut self, value: u64) -> u64 {
        self.reduce(FP_REDUCE_SUM, value, |vals| vals.iter().sum())
    }

    fn any(&mut self, flag: bool) -> bool {
        self.reduce(FP_REDUCE_ANY, u64::from(flag), |vals| {
            u64::from(vals.iter().any(|&v| v != 0))
        }) != 0
    }

    /// In debug builds, check that every rank folded the same schedule.
    fn end_epoch(&mut self) {
        self.assert_schedule_uniform();
    }
}

/// Spawn `p` rank threads, run `body` on each, and collect the results in
/// rank order. `body` receives the rank's [`RankCtx`] and drives as many
/// supersteps as it likes; all ranks must execute the same sequence of
/// `exchange`/collective calls (the usual SPMD contract).
pub fn run_threaded<M, R, F>(p: usize, body: F) -> Vec<R>
where
    M: Send + 'static,
    R: Send + 'static,
    F: Fn(RankCtx<M>) -> R + Send + Sync + 'static,
{
    run_threaded_with(p, (0..p).map(|_| ()).collect(), move |ctx, ()| body(ctx))
}

/// [`run_threaded`] with one owned payload moved into each rank's thread.
/// `payloads[r]` is handed to rank `r`'s body by value, so callers can
/// thread per-rank scratch state (reusable buffers, resident engine state)
/// through a run without any shared locking: each payload has exactly one
/// owner at all times. `payloads.len()` must equal `p`.
pub fn run_threaded_with<M, R, T, F>(p: usize, payloads: Vec<T>, body: F) -> Vec<R>
where
    M: Send + 'static,
    R: Send + 'static,
    T: Send + 'static,
    F: Fn(RankCtx<M>, T) -> R + Send + Sync + 'static,
{
    assert!(p > 0);
    assert_eq!(payloads.len(), p, "one payload per rank");
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..p).map(|_| channel()).unzip();
    let barrier = Arc::new(Barrier::new(p));
    let slots = Arc::new(Mutex::new(vec![None; p]));
    let body = Arc::new(body);

    let mut handles = Vec::with_capacity(p);
    for ((rank, inbox), payload) in receivers.into_iter().enumerate().zip(payloads) {
        let ctx = RankCtx {
            rank,
            p,
            senders: senders.clone(),
            inbox,
            barrier: Arc::clone(&barrier),
            slots: Arc::clone(&slots),
            fp: 0,
            epoch: 0,
            lock_rec: lockorder::Recorder::new(),
        };
        let body = Arc::clone(&body);
        handles.push(
            std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .spawn(move || body(ctx, payload))
                // sssp-lint: allow(no-panic-hot-path): setup, not a hot path;
                // no ranks have started yet, so aborting is clean.
                .expect("failed to spawn rank thread"),
        );
    }
    drop(senders);
    // Re-raise a rank panic on the driver thread instead of returning
    // partial results, preserving the rank's own panic payload so the
    // driver reports the real failure rather than a generic join error.
    handles
        .into_iter()
        .map(|h| match h.join() {
            Ok(r) => r,
            Err(e) => std::panic::resume_unwind(e),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One exchange of freshly built lanes.
    fn swap<M: Send>(ctx: &mut RankCtx<M>, mut out: Vec<Vec<M>>) -> Vec<M> {
        let mut inbox = Vec::new();
        ctx.exchange_pooled_counted(&mut out, &mut inbox, 0, None);
        inbox
    }

    #[test]
    fn exchange_routes_and_orders_by_source() {
        let inboxes = run_threaded(4, |mut ctx: RankCtx<(usize, usize)>| {
            let p = ctx.num_ranks();
            let out: Vec<Vec<(usize, usize)>> = (0..p).map(|dst| vec![(ctx.rank(), dst)]).collect();
            swap(&mut ctx, out)
        });
        for (dst, inbox) in inboxes.iter().enumerate() {
            let expect: Vec<(usize, usize)> = (0..4).map(|src| (src, dst)).collect();
            assert_eq!(inbox, &expect);
        }
    }

    #[test]
    fn multiple_supersteps_stay_in_lockstep() {
        let results = run_threaded(3, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut acc = ctx.rank() as u64;
            for _ in 0..5 {
                // Everyone broadcasts its accumulator; each rank sums what
                // it hears.
                let out: Vec<Vec<u64>> = (0..p).map(|_| vec![acc]).collect();
                let inbox = swap(&mut ctx, out);
                acc = inbox.iter().sum();
            }
            acc
        });
        // All ranks converge to the same value: sum is symmetric.
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        // Round 1: every rank holds 0+1+2 = 3; then 9; 27; 81; 243.
        assert_eq!(results[0], 243);
    }

    #[test]
    fn allreduce_combines_contributions() {
        let sums = run_threaded(5, |mut ctx: RankCtx<()>| {
            ctx.allreduce_sum(ctx.rank() as u64 + 1)
        });
        assert!(sums.iter().all(|&s| s == 15));
        let mins = run_threaded(5, |mut ctx: RankCtx<()>| {
            ctx.allreduce_min(10 - ctx.rank() as u64)
        });
        assert!(mins.iter().all(|&m| m == 6));
    }

    #[test]
    fn any_detects_single_flag() {
        let out = run_threaded(4, |mut ctx: RankCtx<()>| ctx.any(ctx.rank() == 2));
        assert!(out.iter().all(|&b| b));
        let out = run_threaded(4, |mut ctx: RankCtx<()>| ctx.any(false));
        assert!(out.iter().all(|&b| !b));
    }

    #[test]
    fn collectives_and_exchanges_interleave() {
        let results = run_threaded(3, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut x = ctx.rank() as u64;
            loop {
                let out: Vec<Vec<u64>> = (0..p).map(|_| vec![x]).collect();
                let inbox = swap(&mut ctx, out);
                x = *inbox.iter().max().unwrap();
                if ctx.any(x >= 2) {
                    break;
                }
            }
            x
        });
        assert_eq!(results, vec![2, 2, 2]);
    }

    #[test]
    fn pooled_exchange_delivers_every_round_in_source_order() {
        let inboxes = run_threaded(4, |mut ctx: RankCtx<(usize, usize)>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<(usize, usize)>> = (0..p).map(|_| Vec::new()).collect();
            let mut inbox = Vec::new();
            let mut history = Vec::new();
            for round in 0..3 {
                for (dst, lane) in out.iter_mut().enumerate() {
                    lane.push((ctx.rank(), dst + 10 * round));
                }
                ctx.exchange_pooled_counted(&mut out, &mut inbox, 0, None);
                assert!(out.iter().all(Vec::is_empty), "lanes must be drained");
                history.push(inbox.clone());
            }
            history
        });
        for (dst, history) in inboxes.iter().enumerate() {
            for (round, inbox) in history.iter().enumerate() {
                let expect: Vec<(usize, usize)> =
                    (0..4).map(|src| (src, dst + 10 * round)).collect();
                assert_eq!(inbox, &expect, "dst {dst} round {round}");
            }
        }
    }

    #[test]
    fn pooled_exchange_recycles_without_leaking_messages() {
        // Uneven traffic: rank 0 floods, everyone else is quiet. Recycled
        // buffers from the flood round must arrive empty in later rounds.
        let results = run_threaded(3, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
            let mut inbox = Vec::new();
            let mut sizes = Vec::new();
            for round in 0..4u64 {
                if ctx.rank() == 0 && round == 0 {
                    for lane in out.iter_mut() {
                        lane.extend(0..100);
                    }
                }
                ctx.exchange_pooled_counted(&mut out, &mut inbox, 0, None);
                sizes.push(inbox.len());
            }
            sizes
        });
        for sizes in results {
            assert_eq!(sizes, vec![100, 0, 0, 0]);
        }
    }

    #[test]
    fn allreduce_wrappers_agree_with_the_generic_form() {
        let results = run_threaded(4, |mut ctx: RankCtx<()>| {
            let v = ctx.rank() as u64 + 3;
            (
                ctx.allreduce_min(v),
                ctx.allreduce_max(v),
                ctx.allreduce_sum(v),
            )
        });
        for (mn, mx, sum) in results {
            assert_eq!(mn, 3);
            assert_eq!(mx, 6);
            assert_eq!(sum, 3 + 4 + 5 + 6);
        }
    }

    #[test]
    fn exchanged_lanes_come_back_warm_and_empty() {
        // The lanes themselves travel through the channels and come back
        // as the batches received from each source: after one round of `K`
        // messages per rank pair every lane is empty with room for `K`,
        // and the quiet rounds that follow deliver nothing stale and keep
        // the lanes warm.
        const K: usize = 300;
        let results = run_threaded(3, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
            let mut inbox = Vec::new();
            for lane in out.iter_mut() {
                lane.extend(0..K as u64);
            }
            let mut rounds = Vec::new();
            for _ in 0..4 {
                ctx.exchange_pooled_counted(&mut out, &mut inbox, 0, None);
                let empty = out.iter().all(Vec::is_empty);
                let warm = out.iter().map(Vec::capacity).min().unwrap_or(0);
                rounds.push((inbox.len(), empty, warm));
            }
            rounds
        });
        for rounds in results {
            for (round, &(delivered, empty, warm)) in rounds.iter().enumerate() {
                let expect = if round == 0 { 3 * K } else { 0 };
                assert_eq!(delivered, expect, "round {round}: stale or lost messages");
                assert!(empty, "round {round}: every lane must be drained");
                assert!(warm >= K, "round {round}: lane capacity {warm} < {K}");
            }
        }
    }

    #[test]
    fn run_threaded_with_moves_one_payload_per_rank() {
        let out = run_threaded_with(3, vec![10u64, 20, 30], |mut ctx: RankCtx<u64>, own| {
            ctx.allreduce_sum(own)
        });
        assert_eq!(out, vec![60, 60, 60]);
    }

    #[test]
    fn counted_exchange_splits_local_and_remote() {
        // Rank r sends r+1 messages to every rank (itself included); with
        // 8-byte messages and no packet framing the byte counts are exact.
        let counts = run_threaded(3, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            let mut out: Vec<Vec<u64>> = (0..p)
                .map(|_| (0..ctx.rank() as u64 + 1).collect())
                .collect();
            let mut inbox = Vec::new();
            let c = ctx.exchange_pooled_counted(&mut out, &mut inbox, 8, None);
            (c, inbox.len())
        });
        for (rank, (c, received)) in counts.into_iter().enumerate() {
            let own = rank as u64 + 1;
            assert_eq!(c.sent_local, own, "rank {rank}");
            assert_eq!(c.sent_remote, 2 * own, "rank {rank}");
            assert_eq!(c.sent_remote_bytes, 2 * own * 8, "rank {rank}");
            // Receives one batch of src+1 messages from each other rank.
            let recv_remote: u64 = (0..3u64).filter(|&s| s != rank as u64).map(|s| s + 1).sum();
            assert_eq!(c.recv_remote_bytes, recv_remote * 8, "rank {rank}");
            assert_eq!(received as u64, recv_remote + own, "rank {rank}");
        }
    }

    #[test]
    fn counted_exchange_applies_packet_framing() {
        let counts = run_threaded(2, |mut ctx: RankCtx<u64>| {
            let p = ctx.num_ranks();
            // One message to each rank.
            let mut out: Vec<Vec<u64>> = (0..p).map(|_| vec![7]).collect();
            let mut inbox = Vec::new();
            let pk = PacketConfig {
                payload_bytes: 512,
                header_bytes: 32,
                run_header_bytes: 8,
            };
            ctx.exchange_pooled_counted(&mut out, &mut inbox, 16, Some(&pk))
        });
        for c in counts {
            // One 16-byte message fits one packet: 16 payload + 32 header
            // + the stream's 8-byte run descriptor.
            assert_eq!(c.sent_remote, 1);
            assert_eq!(c.sent_remote_bytes, 56);
            assert_eq!(c.recv_remote_bytes, 56);
        }
    }

    #[test]
    fn fingerprints_agree_across_ranks_and_rank_counts() {
        for p in [1, 3, 5] {
            let fps = run_threaded(p, |mut ctx: RankCtx<u64>| {
                let p = ctx.num_ranks();
                for epoch in 0..3 {
                    ctx.set_epoch(epoch);
                    ctx.allreduce_min(ctx.rank() as u64);
                    let mut out: Vec<Vec<u64>> = (0..p).map(|_| vec![1]).collect();
                    let mut inbox = Vec::new();
                    ctx.exchange_pooled_counted(&mut out, &mut inbox, 0, None);
                    ctx.any(ctx.rank() == 0);
                    ctx.assert_schedule_uniform();
                }
                ctx.schedule_fingerprint()
            });
            assert!(
                fps.windows(2).all(|w| w[0] == w[1]),
                "p={p}: ranks disagree: {fps:?}"
            );
            assert_ne!(fps[0], 0, "p={p}: schedule must move the fingerprint");
        }
    }

    #[test]
    fn fingerprint_distinguishes_schedules() {
        let a = run_threaded(2, |mut ctx: RankCtx<u64>| {
            ctx.allreduce_min(0);
            ctx.schedule_fingerprint()
        });
        let b = run_threaded(2, |mut ctx: RankCtx<u64>| {
            ctx.allreduce_max(0);
            ctx.schedule_fingerprint()
        });
        assert_ne!(a[0], b[0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "collective schedule diverged")]
    fn corrupted_fingerprint_trips_the_uniformity_assertion() {
        run_threaded(3, |mut ctx: RankCtx<u64>| {
            ctx.allreduce_sum(1);
            if ctx.rank() == 1 {
                ctx.perturb_fingerprint(0xDEAD_BEEF);
            }
            ctx.assert_schedule_uniform();
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    fn lock_order_twin_records_the_collective_mutex_and_no_nesting() {
        for p in [1, 3, 5] {
            let obs = run_threaded(p, |mut ctx: RankCtx<u64>| {
                ctx.allreduce_sum(ctx.rank() as u64);
                ctx.any(false);
                (ctx.observed_locks(), ctx.observed_lock_pairs())
            });
            for (locks, pairs) in obs {
                assert_eq!(locks, vec!["slots"], "p={p}");
                assert!(
                    pairs.is_empty(),
                    "p={p}: rendezvous runtime must never nest locks: {pairs:?}"
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock acquisition order")]
    fn seeded_lock_inversion_trips_the_twin_at_the_join() {
        run_threaded(3, |mut ctx: RankCtx<u64>| {
            ctx.allreduce_sum(1);
            if ctx.rank() == 2 {
                ctx.perturb_lock_order("slots", "slots");
            }
        });
    }

    #[test]
    fn single_rank_world() {
        let out = run_threaded(1, |mut ctx: RankCtx<u32>| {
            let inbox = swap(&mut ctx, vec![vec![7, 8]]);
            (inbox, ctx.allreduce_sum(9))
        });
        assert_eq!(out[0].0, vec![7, 8]);
        assert_eq!(out[0].1, 9);
    }
}
