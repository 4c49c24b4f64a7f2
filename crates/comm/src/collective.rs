//! Collective operations over per-rank contributions.
//!
//! In the simulated runtime a collective is just a reduction over the
//! per-rank values computed in the preceding superstep, but each call is
//! counted and folded into the schedule fingerprint, and the caller
//! charges the `α·⌈log₂P⌉` latency a tree allreduce would incur on the
//! real machine. The simulated BFS, components, PageRank and Crauser
//! kernels use these; the Δ-stepping engine issues its collectives through
//! a [`crate::transport::Transport`].

use crate::fingerprint::{FP_REDUCE_ANY, FP_REDUCE_F64, FP_REDUCE_MIN, FP_REDUCE_SUM};
use crate::stats::CommStats;

/// Sum-allreduce over per-rank `u64` contributions.
pub fn allreduce_sum(vals: &[u64], stats: &mut CommStats) -> u64 {
    stats.collectives += 1;
    stats.fp_mix(FP_REDUCE_SUM);
    vals.iter().sum()
}

/// Min-allreduce. Empty input yields `u64::MAX` (the identity).
pub fn allreduce_min(vals: &[u64], stats: &mut CommStats) -> u64 {
    stats.collectives += 1;
    stats.fp_mix(FP_REDUCE_MIN);
    vals.iter().copied().min().unwrap_or(u64::MAX)
}

/// Logical-or allreduce (the per-phase "any rank still active?" check).
pub fn allreduce_any(vals: &[bool], stats: &mut CommStats) -> bool {
    stats.collectives += 1;
    stats.fp_mix(FP_REDUCE_ANY);
    vals.iter().any(|&b| b)
}

/// Sum-allreduce over per-rank `f64` contributions (fixed summation order,
/// so results are bit-reproducible).
pub fn allreduce_sum_f64(vals: &[f64], stats: &mut CommStats) -> f64 {
    stats.collectives += 1;
    stats.fp_mix(FP_REDUCE_F64);
    vals.iter().sum()
}

/// Max-allreduce over per-rank `f64` contributions.
pub fn allreduce_max_f64(vals: &[f64], stats: &mut CommStats) -> f64 {
    stats.collectives += 1;
    stats.fp_mix(FP_REDUCE_F64);
    vals.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_match_reference() {
        let mut st = CommStats::new();
        let vals = [5u64, 1, 9, 3];
        assert_eq!(allreduce_sum(&vals, &mut st), 18);
        assert_eq!(allreduce_min(&vals, &mut st), 1);
        assert_eq!(st.collectives, 2);
    }

    #[test]
    fn identities_on_empty_input() {
        let mut st = CommStats::new();
        assert_eq!(allreduce_min(&[], &mut st), u64::MAX);
        assert!(!allreduce_any(&[], &mut st));
    }

    #[test]
    fn any_detects_single_true() {
        let mut st = CommStats::new();
        assert!(allreduce_any(&[false, false, true, false], &mut st));
        assert!(!allreduce_any(&[false, false], &mut st));
    }
}
