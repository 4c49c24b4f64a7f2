//! Collective operations over per-rank contributions.
//!
//! In the simulated runtime a collective is just a reduction over the
//! per-rank values computed in the preceding superstep, but each call is
//! recorded so the cost model can charge the `α·⌈log₂P⌉` latency a tree
//! allreduce would incur on the real machine. The simulated BFS,
//! components, PageRank and Crauser kernels use these; the Δ-stepping
//! engine issues its collectives through a [`crate::transport::Transport`].

use crate::fingerprint::{
    FP_ALLGATHER, FP_REDUCE_ANY, FP_REDUCE_F64, FP_REDUCE_MAX, FP_REDUCE_MIN, FP_REDUCE_SUM,
    FP_WINDOW,
};
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

/// Min-allreduce of per-rank epoch-window proposals (stepping-policy
/// window selection). Semantically a min-reduce, but fingerprinted with
/// its own kind so a policy that issues the window collective holds a
/// schedule distinct from one that does not. Empty input yields
/// `u64::MAX` (the identity).
pub fn allreduce_min_window(vals: &[u64], stats: &mut CommStats) -> u64 {
    stats.collectives += 1;
    stats.fp_mix(FP_WINDOW);
    vals.iter().copied().min().unwrap_or(u64::MAX)
}

/// Max-allreduce. Empty input yields 0 (the identity).
pub fn allreduce_max(vals: &[u64], stats: &mut CommStats) -> u64 {
    stats.collectives += 1;
    stats.fp_mix(FP_REDUCE_MAX);
    vals.iter().copied().max().unwrap_or(0)
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

/// Allgather: every rank receives the full vector of contributions.
/// Returns it once (ranks share the simulator's memory).
pub fn allgather<T: Clone>(vals: &[T], stats: &mut CommStats) -> Vec<T> {
    stats.collectives += 1;
    stats.fp_mix(FP_ALLGATHER);
    vals.to_vec()
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
        assert_eq!(allreduce_max(&vals, &mut st), 9);
        assert_eq!(st.collectives, 3);
    }

    #[test]
    fn identities_on_empty_input() {
        let mut st = CommStats::new();
        assert_eq!(allreduce_min(&[], &mut st), u64::MAX);
        assert_eq!(allreduce_min_window(&[], &mut st), u64::MAX);
        assert_eq!(allreduce_max(&[], &mut st), 0);
        assert!(!allreduce_any(&[], &mut st));
    }

    #[test]
    fn window_min_matches_plain_min_but_fingerprints_apart() {
        let vals = [7u64, 3, 11];
        let mut a = CommStats::new();
        let mut b = CommStats::new();
        assert_eq!(
            allreduce_min(&vals, &mut a),
            allreduce_min_window(&vals, &mut b)
        );
        assert_ne!(
            a.fingerprint, b.fingerprint,
            "window op must be its own kind"
        );
    }

    #[test]
    fn any_detects_single_true() {
        let mut st = CommStats::new();
        assert!(allreduce_any(&[false, false, true, false], &mut st));
        assert!(!allreduce_any(&[false, false], &mut st));
    }

    #[test]
    fn allgather_replicates() {
        let mut st = CommStats::new();
        let v = allgather(&[1, 2, 3], &mut st);
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(st.collectives, 1);
    }
}
