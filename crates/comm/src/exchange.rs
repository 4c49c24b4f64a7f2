//! The rank side of a bulk-synchronous exchange.
//!
//! A superstep fills, on every rank, one outbox lane per destination rank.
//! A [`Transport`](crate::transport::Transport) then delivers the lanes —
//! each inbox is the concatenation of its lanes in source-rank order — and
//! reports each rank's [`ExchangeCounts`](crate::transport::ExchangeCounts).
//! This module holds what the callers of that exchange share: the
//! [`Mailbox`](crate::exchange::Mailbox) a simulated kernel keeps per rank
//! across supersteps, [`fold_counts`](crate::exchange::fold_counts), which
//! turns the per-rank counts into one
//! [`StepStats`](crate::stats::StepStats) record, and the sender-side lane
//! packing and pool trimming of the Δ-stepping engine.

use crate::stats::StepStats;
use crate::transport::{ExchangeCounts, Post};
use crate::Rank;

/// One rank's exchange buffers, kept across supersteps so that lanes and
/// inbox reach a steady state where an exchange allocates nothing.
#[derive(Debug, Clone)]
pub struct Mailbox<M> {
    /// `out[dst]` holds the messages for rank `dst`.
    pub out: Vec<Vec<M>>,
    /// What the last exchange delivered, in source-rank order.
    pub inbox: Vec<M>,
    /// This rank's traffic in the last exchange.
    pub counts: ExchangeCounts,
}

impl<M> Mailbox<M> {
    /// Empty mailbox with one lane per destination rank of a `p`-rank world.
    pub fn new(p: usize) -> Self {
        Mailbox {
            out: (0..p).map(|_| Vec::new()).collect(),
            inbox: Vec::new(),
            counts: ExchangeCounts::default(),
        }
    }

    /// Queue `msg` for delivery to `dst` at the next exchange.
    #[inline]
    pub fn send(&mut self, dst: Rank, msg: M) {
        self.out[dst].push(msg);
    }

    /// The view a [`Transport`](crate::transport::Transport) exchanges through.
    pub fn post(&mut self) -> Post<'_, M> {
        Post {
            out: &mut self.out,
            inbox: &mut self.inbox,
            counts: &mut self.counts,
        }
    }
}

/// Fold per-rank exchange counts, in rank order, into one step record:
/// message and byte totals plus the largest per-rank send and receive.
pub fn fold_counts<'a>(counts: impl IntoIterator<Item = &'a ExchangeCounts>) -> StepStats {
    let mut step = StepStats::default();
    for c in counts {
        step.local_msgs += c.sent_local;
        step.remote_msgs += c.sent_remote;
        step.remote_bytes += c.sent_remote_bytes;
        step.max_rank_send_bytes = step.max_rank_send_bytes.max(c.sent_remote_bytes);
        step.max_rank_recv_bytes = step.max_rank_recv_bytes.max(c.recv_remote_bytes);
    }
    step
}

/// Sender-side sorted-run packing of one outbox lane: sort the lane by
/// `(key, val)` so it ships as a single key-sorted run the receiver can
/// apply as a sequential min-merge over its distance array instead of
/// random-access writes. With `dedup` enabled (relaxation coalescing) the
/// sorted order additionally lets every dominated duplicate collapse for
/// free: for each distinct `key(m)` only the message with the smallest
/// `val(m)` survives. Relaxation traffic is an idempotent min-reduction
/// per destination vertex, so neither the reordering nor the dropping
/// changes final distances — and sorting makes the delivery order a pure
/// function of the lane's message *set* rather than its fill order.
///
/// Returns the number of messages removed (always 0 without `dedup`).
pub fn pack_sorted_run<M, K, V>(
    lane: &mut Vec<M>,
    key: impl Fn(&M) -> K,
    val: impl Fn(&M) -> V,
    dedup: bool,
) -> u64
where
    K: Ord,
    V: Ord,
{
    if lane.len() < 2 {
        return 0;
    }
    let before = lane.len();
    lane.sort_unstable_by(|a, b| key(a).cmp(&key(b)).then_with(|| val(a).cmp(&val(b))));
    if dedup {
        // `dedup_by` drops the *later* element of each equal-key pair, so
        // the survivor of every key run is its first — smallest — message.
        lane.dedup_by(|a, b| key(a) == key(b));
    }
    (before - lane.len()) as u64
}

/// The pool-growth bound: shrink `buf` back to `high_water` capacity when
/// its current capacity exceeds 4× that high-water mark. A single giant
/// superstep thereby cannot pin its peak allocation for the rest of the
/// run; steady-state buffers (within 4× of recent traffic) are untouched.
///
/// Returns whether the buffer shrank.
pub fn shrink_oversized<M>(buf: &mut Vec<M>, high_water: usize) -> bool {
    if buf.capacity() > high_water.saturating_mul(4) {
        buf.shrink_to(high_water);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{SimWorld, Transport};

    /// Deliver every mailbox of a `mail.len()`-rank world and fold the step.
    fn deliver<M>(mail: &mut [Mailbox<M>], msg_bytes: usize) -> StepStats {
        let mut world = SimWorld::new(mail.len());
        world.exchange(mail, Mailbox::post, msg_bytes, None);
        fold_counts(mail.iter().map(|m| &m.counts))
    }

    fn mailboxes<M>(p: usize) -> Vec<Mailbox<M>> {
        (0..p).map(|_| Mailbox::new(p)).collect()
    }

    /// Keep, for every distinct `key(m)`, only the message with the
    /// smallest `val(m)`, leaving the lane sorted by key: the reference
    /// [`pack_sorted_run`] with `dedup` must match.
    fn coalesce_lane_min<M, K: Ord, V: Ord>(
        lane: &mut Vec<M>,
        key: impl Fn(&M) -> K,
        val: impl Fn(&M) -> V,
    ) -> u64 {
        let before = lane.len();
        lane.sort_by(|a, b| key(a).cmp(&key(b)).then_with(|| val(a).cmp(&val(b))));
        lane.dedup_by(|a, b| key(a) == key(b));
        (before - lane.len()) as u64
    }

    #[test]
    fn delivery_is_transposed_and_ordered() {
        let p = 3;
        let mut mail = mailboxes(p);
        for (src, mb) in mail.iter_mut().enumerate() {
            for dst in 0..p {
                mb.send(dst, (src, dst));
            }
        }
        deliver(&mut mail, 16);
        for (dst, mb) in mail.iter().enumerate() {
            let expect: Vec<_> = (0..p).map(|src| (src, dst)).collect();
            assert_eq!(mb.inbox, expect);
        }
    }

    #[test]
    fn stats_split_local_and_remote() {
        let mut mail = mailboxes(2);
        mail[0].send(0, 1u64); // local
        mail[0].send(1, 2); // remote
        mail[1].send(0, 3); // remote
        let stats = deliver(&mut mail, 8);
        assert_eq!(stats.local_msgs, 1);
        assert_eq!(stats.remote_msgs, 2);
        assert_eq!(stats.remote_bytes, 16);
        assert_eq!(stats.max_rank_send_bytes, 8);
        assert_eq!(stats.max_rank_recv_bytes, 8);
    }

    #[test]
    fn max_rank_send_detects_imbalance() {
        let mut mail = mailboxes(3);
        for _ in 0..10 {
            mail[0].send(1, 0u8);
        }
        mail[2].send(1, 0);
        let stats = deliver(&mut mail, 4);
        assert_eq!(stats.remote_msgs, 11);
        assert_eq!(stats.max_rank_send_bytes, 40);
        assert_eq!(stats.max_rank_recv_bytes, 44);
    }

    #[test]
    fn empty_exchange() {
        let mut mail = mailboxes::<u32>(4);
        let stats = deliver(&mut mail, 4);
        assert!(mail.iter().all(|m| m.inbox.is_empty()));
        assert_eq!(stats, StepStats::default());
    }

    #[test]
    fn coalesce_keeps_min_per_key() {
        let mut lane: Vec<(u32, u64)> = vec![(3, 9), (1, 5), (3, 2), (2, 7), (1, 5), (3, 11)];
        let saved = coalesce_lane_min(&mut lane, |m| m.0, |m| m.1);
        assert_eq!(saved, 3);
        assert_eq!(lane, vec![(1, 5), (2, 7), (3, 2)]);
    }

    #[test]
    fn coalesce_short_lanes_are_untouched() {
        let mut empty: Vec<(u32, u64)> = Vec::new();
        assert_eq!(pack_sorted_run(&mut empty, |m| m.0, |m| m.1, true), 0);
        let mut one = vec![(5u32, 40u64)];
        assert_eq!(pack_sorted_run(&mut one, |m| m.0, |m| m.1, true), 0);
        assert_eq!(one, vec![(5, 40)]);
    }

    #[test]
    fn pack_without_dedup_sorts_and_keeps_everything() {
        let mut lane: Vec<(u32, u64)> = vec![(3, 9), (1, 5), (3, 2), (2, 7), (1, 5), (3, 11)];
        let saved = pack_sorted_run(&mut lane, |m| m.0, |m| m.1, false);
        assert_eq!(saved, 0);
        assert_eq!(lane, vec![(1, 5), (1, 5), (2, 7), (3, 2), (3, 9), (3, 11)]);
    }

    #[test]
    fn pack_with_dedup_matches_coalesce() {
        let msgs: Vec<(u32, u64)> = vec![(3, 9), (1, 5), (3, 2), (2, 7), (1, 5), (3, 11)];
        let mut packed = msgs.clone();
        let mut coalesced = msgs;
        let a = pack_sorted_run(&mut packed, |m| m.0, |m| m.1, true);
        let b = coalesce_lane_min(&mut coalesced, |m| m.0, |m| m.1);
        assert_eq!(a, b);
        assert_eq!(packed, coalesced);
        assert_eq!(packed, vec![(1, 5), (2, 7), (3, 2)]);
    }

    #[test]
    fn shrink_oversized_honors_the_4x_bound() {
        let mut buf: Vec<u8> = Vec::with_capacity(1000);
        // Capacity 1000 ≤ 4 × 250: not oversized.
        assert!(!shrink_oversized(&mut buf, 250));
        assert!(buf.capacity() >= 1000);
        // Capacity 1000 > 4 × 100: shrinks back to the high-water mark.
        assert!(shrink_oversized(&mut buf, 100));
        assert!(buf.capacity() < 1000);
        // A zero high-water mark releases the buffer entirely.
        let mut spike: Vec<u8> = Vec::with_capacity(64);
        assert!(shrink_oversized(&mut spike, 0));
        assert_eq!(spike.capacity(), 0);
    }

    #[test]
    fn outbox_clear_keeps_capacity() {
        let mut mail = mailboxes(2);
        for _ in 0..32 {
            mail[0].send(1, 9u8);
        }
        let cap = mail[0].out[1].capacity();
        deliver(&mut mail, 1);
        assert!(mail[0].out[1].is_empty());
        assert_eq!(mail[0].out[1].capacity(), cap);
        assert_eq!(mail[1].inbox.len(), 32);
    }
}
