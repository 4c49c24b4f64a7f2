//! Simulated distributed-memory runtime for the `sssp-mps` reproduction.
//!
//! The paper ran on Blue Gene/Q: thousands of nodes exchanging active
//! messages through the SPI layer, synchronizing each Δ-stepping phase with
//! collectives. This crate reproduces that execution model in-process:
//!
//! * **Ranks** — `P` logical processors, each owning private state.
//! * **Transport** ([`transport`]) — what an SPMD program needs from the
//!   machine: exchange plus the allreduce family. [`transport::SimWorld`]
//!   runs every rank in one worker on the calling thread, so every run is
//!   deterministic; [`threaded::RankCtx`] runs one OS thread per rank.
//!   Both deliver each inbox in source-rank order.
//! * **Exchange** ([`exchange`]) — what a rank keeps across supersteps
//!   ([`exchange::Mailbox`]), the fold of per-rank transport counts into one
//!   step record (message counts, bytes, and per-rank maxima — the
//!   load-imbalance signal the paper's heuristics use), and sender-side
//!   lane packing.
//! * **Collectives** ([`collective`]) — reductions over per-rank values for
//!   the simulated kernels, each counted and folded into the schedule
//!   fingerprint.
//! * **Cost model** ([`cost`]) — an α–β–γ machine model that converts the
//!   recorded counts into simulated time and TEPS, standing in for the
//!   Blue Gene/Q wall clock. Defaults are calibrated so that a scale-35 run
//!   on 4096 simulated nodes lands near the paper's 650 GTEPS.
//!
//! Message coalescing into network packets (the SPI injection-FIFO framing)
//! is modeled optionally by [`packet`]. What this substrate deliberately
//! does **not** model: network topology (the 5D torus) and overlap of
//! computation with communication. Those affect absolute constants, not the
//! relative comparisons (push vs pull, hybrid vs not, balanced vs not) the
//! paper's figures are built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Counted reductions over per-rank values.
pub mod collective;
/// The α–β–γ machine model converting traffic into simulated time.
pub mod cost;
/// Per-rank mailboxes, the per-rank count fold and lane packing.
pub mod exchange;
/// Rolling collective-schedule fingerprints shared by both backends.
pub mod fingerprint;
/// Debug-gated runtime twin of the static lock-order model.
pub mod lockorder;
/// Optional SPI-style packet coalescing model.
pub mod packet;
/// Per-superstep traffic ledgers ([`stats::CommStats`]).
pub mod stats;
/// Real-thread SPMD runtime (one OS thread per rank).
pub mod threaded;
/// The transport trait the SPMD epoch loop runs over, and the simulator's
/// single-worker transport ([`transport::SimWorld`]).
pub mod transport;

/// Index of a logical processor (the paper's "node"/"rank").
pub type Rank = usize;
