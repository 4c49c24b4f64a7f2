//! Property-based tests of the communication substrate.

use proptest::prelude::*;

use sssp_comm::collective::{allreduce_any, allreduce_min, allreduce_sum};
use sssp_comm::exchange::{fold_counts, Mailbox};
use sssp_comm::packet::PacketConfig;
use sssp_comm::stats::{CommStats, StepStats};
use sssp_comm::transport::{SimWorld, Transport};

/// Arbitrary traffic pattern: a list of (src, dst, payload) sends over p ranks.
fn arb_traffic() -> impl Strategy<Value = (usize, Vec<(usize, usize, u32)>)> {
    (1usize..10).prop_flat_map(|p| {
        let sends = proptest::collection::vec((0..p, 0..p, any::<u32>()), 0..200);
        (Just(p), sends)
    })
}

/// Queue `sends` (as `msg(src, dst, payload)`) in one mailbox per rank,
/// deliver them through a simulated world and fold the step record.
fn deliver<M>(
    p: usize,
    sends: &[(usize, usize, u32)],
    msg: impl Fn(usize, usize, u32) -> M,
    msg_bytes: usize,
    packet: Option<&PacketConfig>,
) -> (Vec<Vec<M>>, StepStats) {
    let mut mail: Vec<Mailbox<M>> = (0..p).map(|_| Mailbox::new(p)).collect();
    for &(s, d, x) in sends {
        mail[s].send(d, msg(s, d, x));
    }
    SimWorld::new(p).exchange(&mut mail, Mailbox::post, msg_bytes, packet);
    let step = fold_counts(mail.iter().map(|m| &m.counts));
    (mail.into_iter().map(|m| m.inbox).collect(), step)
}

/// The reference transpose: inbox `dst` holds, source by source, every
/// message sent to `dst` in the order it was sent.
fn reference<M: Clone>(
    p: usize,
    sends: &[(usize, usize, u32)],
    msg: impl Fn(usize, usize, u32) -> M,
) -> Vec<Vec<M>> {
    (0..p)
        .map(|dst| {
            (0..p)
                .flat_map(|src| {
                    sends
                        .iter()
                        .filter(move |&&(s, d, _)| s == src && d == dst)
                        .map(|&(s, d, x)| msg(s, d, x))
                        .collect::<Vec<_>>()
                })
                .collect()
        })
        .collect()
}

proptest! {
    #[test]
    fn exchange_conserves_every_message((p, sends) in arb_traffic()) {
        let msg = |s, d, x| (s, d, x);
        let (inboxes, stats) = deliver(p, &sends, msg, 12, None);

        // Every message arrives exactly once, at its destination, in the
        // reference order.
        prop_assert_eq!(&inboxes, &reference(p, &sends, msg));
        let mut received: Vec<(usize, usize, u32)> = inboxes.concat();
        let mut sent_sorted = sends.clone();
        sent_sorted.sort_unstable();
        received.sort_unstable();
        prop_assert_eq!(received, sent_sorted);

        // Stats split local/remote correctly.
        let local = sends.iter().filter(|&&(s, d, _)| s == d).count() as u64;
        prop_assert_eq!(stats.local_msgs, local);
        prop_assert_eq!(stats.remote_msgs, sends.len() as u64 - local);
        prop_assert_eq!(stats.remote_bytes, stats.remote_msgs * 12);
    }

    #[test]
    fn inbox_order_is_source_major((p, sends) in arb_traffic()) {
        let (inboxes, _) = deliver(p, &sends, |s, _, _| s, 8, None);
        for inbox in &inboxes {
            // Sources appear in non-decreasing order within each inbox.
            prop_assert!(inbox.windows(2).all(|w| w[0] <= w[1]));
        }
        prop_assert_eq!(inboxes, reference(p, &sends, |s, _, _| s));
    }

    #[test]
    fn packet_framing_only_adds_bytes((p, sends) in arb_traffic()) {
        let payload = |_, _, x| x;
        let (_, raw) = deliver(p, &sends, payload, 16, None);
        let (inboxes, framed) = deliver(p, &sends, payload, 16, Some(&PacketConfig::bgq()));
        prop_assert_eq!(framed.remote_msgs, raw.remote_msgs);
        prop_assert!(framed.remote_bytes >= raw.remote_bytes);
        prop_assert!(framed.max_rank_send_bytes >= raw.max_rank_send_bytes);
        // Delivery identical regardless of framing.
        prop_assert_eq!(inboxes, reference(p, &sends, payload));
    }

    #[test]
    fn wire_bytes_monotone_in_count(count in 0u64..10_000, msg in 1usize..64) {
        let cfg = PacketConfig::bgq();
        let a = cfg.wire_bytes(count, msg);
        let b = cfg.wire_bytes(count + 1, msg);
        prop_assert!(b >= a);
        prop_assert!(a >= count * msg as u64);
    }

    #[test]
    fn collectives_match_reference(vals in proptest::collection::vec(0u64..u32::MAX as u64, 0..50)) {
        let mut st = CommStats::new();
        prop_assert_eq!(allreduce_sum(&vals, &mut st), vals.iter().sum::<u64>());
        prop_assert_eq!(allreduce_min(&vals, &mut st), vals.iter().copied().min().unwrap_or(u64::MAX));
        let flags: Vec<bool> = vals.iter().map(|&v| v % 2 == 0).collect();
        prop_assert_eq!(allreduce_any(&flags, &mut st), flags.contains(&true));
        prop_assert_eq!(st.collectives, 3);
    }
}
