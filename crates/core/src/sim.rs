//! The simulated machine the BFS, components, PageRank and Crauser kernels
//! run on.
//!
//! A kernel keeps one [`Mailbox`] per rank and loops over its ranks in rank
//! order; [`SimMachine::exchange`] delivers every mailbox through a
//! [`SimWorld`] and charges the superstep, and the collective helpers
//! reduce per-rank values. Both charge the traffic ledger ([`CommStats`])
//! and the simulated-time ledger ([`TimeLedger`]) the kernel reports.

use sssp_comm::collective::{
    allreduce_any, allreduce_max_f64, allreduce_min, allreduce_sum, allreduce_sum_f64,
};
use sssp_comm::cost::{MachineModel, TimeClass, TimeLedger};
use sssp_comm::exchange::{fold_counts, Mailbox};
use sssp_comm::stats::{CommStats, StepStats};
use sssp_comm::transport::{SimWorld, Transport};
use sssp_dist::DistGraph;

/// A `p`-rank simulated world with the ledgers a kernel run reports.
pub(crate) struct SimMachine<'a> {
    /// The machine model every charge uses.
    pub model: &'a MachineModel,
    world: SimWorld,
    p: usize,
    /// Threads of the whole machine (ranks × threads per rank).
    threads: u64,
    /// Supersteps and collectives issued so far.
    pub comm: CommStats,
    /// Simulated time charged so far.
    pub ledger: TimeLedger,
}

impl<'a> SimMachine<'a> {
    /// A fresh machine with one rank per rank of `dg`.
    pub fn new(dg: &DistGraph, model: &'a MachineModel) -> Self {
        let p = dg.num_ranks();
        SimMachine {
            model,
            world: SimWorld::new(p),
            p,
            threads: (p as u64 * dg.threads_per_rank.max(1) as u64).max(1),
            comm: CommStats::new(),
            ledger: TimeLedger::new(),
        }
    }

    /// One empty mailbox per rank.
    pub fn mailboxes<M>(&self) -> Vec<Mailbox<M>> {
        (0..self.p).map(|_| Mailbox::new(self.p)).collect()
    }

    /// Charge a relaxation superstep whose `ops` operations spread evenly
    /// over every thread of the machine and whose busiest rank moved
    /// `bytes`.
    pub fn charge(&mut self, ops: u64, bytes: u64) {
        let per_thread = ops / self.threads + 1;
        self.ledger
            .charge_superstep(self.model, TimeClass::Relax, per_thread, bytes);
    }

    /// Deliver every rank's lanes, then charge and record the superstep.
    /// Every kernel sends one message per edge it examines, so each message
    /// sent is one operation.
    pub fn exchange<M>(&mut self, mail: &mut [Mailbox<M>], msg_bytes: usize) -> StepStats {
        let packet = self.model.packet.as_ref();
        self.world.exchange(mail, Mailbox::post, msg_bytes, packet);
        let step = fold_counts(mail.iter().map(|m| &m.counts));
        let bytes = step.max_rank_send_bytes.max(step.max_rank_recv_bytes);
        self.charge(step.local_msgs + step.remote_msgs, bytes);
        self.comm.record(step);
        step
    }

    /// Charge one collective's tree latency to `class`.
    pub fn collective(&mut self, class: TimeClass) {
        self.ledger.charge_collective(self.model, class, self.p);
    }

    /// Logical or of per-rank flags.
    pub fn any(&mut self, flags: &[bool]) -> bool {
        let v = allreduce_any(flags, &mut self.comm);
        self.collective(TimeClass::Bucket);
        v
    }

    /// Sum of per-rank values.
    pub fn sum(&mut self, vals: &[u64]) -> u64 {
        let v = allreduce_sum(vals, &mut self.comm);
        self.collective(TimeClass::Bucket);
        v
    }

    /// Minimum of per-rank values.
    pub fn min(&mut self, vals: &[u64]) -> u64 {
        let v = allreduce_min(vals, &mut self.comm);
        self.collective(TimeClass::Bucket);
        v
    }

    /// Sum of per-rank `f64` values, in rank order.
    pub fn sum_f64(&mut self, vals: &[f64]) -> f64 {
        let v = allreduce_sum_f64(vals, &mut self.comm);
        self.collective(TimeClass::Bucket);
        v
    }

    /// Maximum of per-rank `f64` values.
    pub fn max_f64(&mut self, vals: &[f64]) -> f64 {
        let v = allreduce_max_f64(vals, &mut self.comm);
        self.collective(TimeClass::Bucket);
        v
    }
}
