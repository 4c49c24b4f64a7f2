//! The transport an SPMD epoch loop runs over.
//!
//! An epoch loop runs on a *worker* that owns a block of consecutive
//! ranks. It folds each per-rank value across its own block, and the
//! [`Transport`] combines the folded values across workers. Two transports
//! exist:
//!
//! * [`crate::threaded::RankCtx`] — one worker per rank on its own OS
//!   thread; collectives are rendezvous through shared slots, exchanges
//!   travel through channels.
//! * [`SimWorld`] — a single worker owns all `p` ranks, so a collective is
//!   the identity on the already folded value and an exchange is an
//!   in-memory transpose of the block's outbox lanes. It spawns no threads.
//!
//! Both deliver every inbox in source-rank order, so the same loop applies
//! the same messages in the same order on either transport.

use std::ops::Range;

use crate::packet::PacketConfig;

/// One rank's transport counts for a single exchange, as seen from that
/// rank: messages it sent to itself (`sent_local`), messages it put on the
/// wire (`sent_remote`, with `sent_remote_bytes` of framed traffic) and the
/// framed bytes it received from other ranks (`recv_remote_bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeCounts {
    /// Messages this rank addressed to itself (never on the wire).
    pub sent_local: u64,
    /// Messages this rank sent to other ranks.
    pub sent_remote: u64,
    /// Wire bytes of this rank's remote sends (packet framing applied).
    pub sent_remote_bytes: u64,
    /// Wire bytes this rank received from other ranks.
    pub recv_remote_bytes: u64,
}

/// One rank's side of an exchange: its outbox lanes (one per destination
/// rank, left empty with capacity intact), the inbox the exchange refills,
/// and the counts it reports.
pub struct Post<'a, M> {
    /// `out[dst]` holds the messages for rank `dst`.
    pub out: &'a mut [Vec<M>],
    /// Cleared, then filled in source-rank order.
    pub inbox: &'a mut Vec<M>,
    /// This rank's traffic for the exchange.
    pub counts: &'a mut ExchangeCounts,
}

/// Wire bytes of `count` messages of `msg_bytes` each under the optional
/// packet framing.
pub fn wire_bytes(count: u64, msg_bytes: usize, packet: Option<&PacketConfig>) -> u64 {
    match packet {
        Some(pk) => pk.wire_bytes(count, msg_bytes),
        None => count * msg_bytes as u64,
    }
}

/// What an SPMD epoch loop needs from the machine it runs on. Every worker
/// must issue the same sequence of calls (the SPMD contract); a value
/// passed to a collective is the worker's fold over its own ranks.
pub trait Transport<M> {
    /// Ranks in the whole world.
    fn num_ranks(&self) -> usize;
    /// The consecutive ranks this worker owns.
    fn ranks(&self) -> Range<usize>;
    /// Set the epoch tag mixed into the schedule fingerprint.
    fn set_epoch(&mut self, epoch: u64);
    /// Deliver the outbox lanes of every rank in `block` (one slot per
    /// owned rank, in rank order), viewed through `post`.
    fn exchange<S, P>(
        &mut self,
        block: &mut [S],
        post: P,
        msg_bytes: usize,
        packet: Option<&PacketConfig>,
    ) where
        P: Fn(&mut S) -> Post<'_, M>;
    /// Minimum across workers.
    fn allreduce_min(&mut self, value: u64) -> u64;
    /// Minimum of epoch-window proposals (its own fingerprint kind).
    fn allreduce_min_window(&mut self, value: u64) -> u64;
    /// Maximum across workers.
    fn allreduce_max(&mut self, value: u64) -> u64;
    /// Sum across workers.
    fn allreduce_sum(&mut self, value: u64) -> u64;
    /// Logical or across workers.
    fn any(&mut self, flag: bool) -> bool;
    /// Epoch boundary: a transport may cross-check its schedule here (the
    /// loop itself bounds the lanes). Every worker calls it at the same
    /// points.
    fn end_epoch(&mut self) {}
}

/// The simulator's transport: one worker owns every rank of a `p`-rank
/// world, so collectives return the folded value unchanged and an
/// exchange transposes the block's lanes in memory.
#[derive(Debug, Clone)]
pub struct SimWorld {
    p: usize,
}

impl SimWorld {
    /// A world of `p` ranks, all owned by the calling worker.
    pub fn new(p: usize) -> Self {
        SimWorld { p }
    }
}

impl<M> Transport<M> for SimWorld {
    fn num_ranks(&self) -> usize {
        self.p
    }

    fn ranks(&self) -> Range<usize> {
        0..self.p
    }

    fn set_epoch(&mut self, _epoch: u64) {}

    fn exchange<S, P>(
        &mut self,
        block: &mut [S],
        post: P,
        msg_bytes: usize,
        packet: Option<&PacketConfig>,
    ) where
        P: Fn(&mut S) -> Post<'_, M>,
    {
        assert_eq!(block.len(), self.p, "a simulated world owns every rank");
        // Send side: each rank counts its own lanes.
        for (src, s) in block.iter_mut().enumerate() {
            let pst = post(s);
            assert_eq!(pst.out.len(), self.p, "outbox fan-out mismatch");
            let mut c = ExchangeCounts::default();
            for (dst, lane) in pst.out.iter().enumerate() {
                let k = lane.len() as u64;
                if dst == src {
                    c.sent_local += k;
                } else {
                    c.sent_remote += k;
                    c.sent_remote_bytes += wire_bytes(k, msg_bytes, packet);
                }
            }
            *pst.counts = c;
        }
        // Receive side and delivery: inbox[dst] = concat over src of
        // out[src][dst], in source order. `append` leaves every lane empty
        // with its capacity intact.
        for dst in 0..self.p {
            post(&mut block[dst]).inbox.clear();
            let mut recv = 0u64;
            for src in 0..self.p {
                if src == dst {
                    let pst = post(&mut block[dst]);
                    pst.inbox.append(&mut pst.out[dst]);
                    continue;
                }
                let (from, to) = two_mut(block, src, dst);
                let from = post(from);
                recv += wire_bytes(from.out[dst].len() as u64, msg_bytes, packet);
                post(to).inbox.append(&mut from.out[dst]);
            }
            post(&mut block[dst]).counts.recv_remote_bytes = recv;
        }
    }

    fn allreduce_min(&mut self, value: u64) -> u64 {
        value
    }

    fn allreduce_min_window(&mut self, value: u64) -> u64 {
        value
    }

    fn allreduce_max(&mut self, value: u64) -> u64 {
        value
    }

    fn allreduce_sum(&mut self, value: u64) -> u64 {
        value
    }

    fn any(&mut self, flag: bool) -> bool {
        flag
    }
}

/// Disjoint mutable borrows of `xs[a]` and `xs[b]` (`a != b`).
fn two_mut<S>(xs: &mut [S], a: usize, b: usize) -> (&mut S, &mut S) {
    if a < b {
        let (lo, hi) = xs.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{fold_counts, Mailbox};
    use crate::packet::PacketConfig;

    fn mailboxes(p: usize) -> Vec<Mailbox<(usize, usize)>> {
        (0..p).map(|_| Mailbox::new(p)).collect()
    }

    #[test]
    fn transpose_matches_the_global_exchange() {
        // The global-view exchange, written out as the reference: inbox
        // `dst` is every lane `out[src][dst]` concatenated in source order,
        // and each rank's bytes are the wire size of its remote lanes.
        let p = 3;
        let packet = PacketConfig::bgq();
        for pk in [None, Some(&packet)] {
            let mut mail = mailboxes(p);
            for (src, mb) in mail.iter_mut().enumerate() {
                for dst in 0..p {
                    for _ in 0..(src + 2 * dst) {
                        mb.send(dst, (src, dst));
                    }
                }
            }
            let lanes: Vec<Vec<Vec<(usize, usize)>>> = mail.iter().map(|m| m.out.clone()).collect();
            let wire = |src: usize, dst: usize| wire_bytes(lanes[src][dst].len() as u64, 16, pk);
            let mut world = SimWorld::new(p);
            world.exchange(&mut mail, Mailbox::post, 16, pk);
            for (dst, mb) in mail.iter().enumerate() {
                let expect: Vec<_> = (0..p).flat_map(|src| lanes[src][dst].clone()).collect();
                assert_eq!(mb.inbox, expect);
                assert!(mb.out.iter().all(Vec::is_empty));
                let sent = (0..p)
                    .filter(|&d| d != dst)
                    .map(|d| wire(dst, d))
                    .sum::<u64>();
                let recv = (0..p)
                    .filter(|&s| s != dst)
                    .map(|s| wire(s, dst))
                    .sum::<u64>();
                assert_eq!(mb.counts.sent_local, lanes[dst][dst].len() as u64);
                assert_eq!(mb.counts.sent_remote_bytes, sent);
                assert_eq!(mb.counts.recv_remote_bytes, recv);
            }
            let step = fold_counts(mail.iter().map(|m| &m.counts));
            let total: usize = lanes.iter().flatten().map(Vec::len).sum();
            assert_eq!(step.local_msgs + step.remote_msgs, total as u64);
        }
    }

    #[test]
    fn exchange_clears_stale_inboxes_and_keeps_capacity() {
        let mut world = SimWorld::new(2);
        let mut mail = mailboxes(2);
        for i in 0..50 {
            mail[0].send(1, (0, i));
        }
        world.exchange(&mut mail, Mailbox::post, 8, None);
        assert_eq!(mail[1].inbox.len(), 50);
        assert!(mail[0].out[1].capacity() >= 50);
        // A quiet superstep: the old messages must not survive.
        world.exchange(&mut mail, Mailbox::post, 8, None);
        assert!(mail[1].inbox.is_empty());
        assert_eq!(mail[1].counts, ExchangeCounts::default());
        assert!(mail[1].inbox.capacity() >= 50);
    }

    #[test]
    fn collectives_pass_the_fold_through() {
        let mut w = SimWorld::new(4);
        assert_eq!(Transport::<()>::allreduce_min(&mut w, 7), 7);
        assert_eq!(Transport::<()>::allreduce_sum(&mut w, 9), 9);
        assert!(Transport::<()>::any(&mut w, true));
        assert_eq!(Transport::<()>::ranks(&w), 0..4);
    }
}
