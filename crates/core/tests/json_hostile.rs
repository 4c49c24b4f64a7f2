//! The JSON codec on hostile input: `trace_diff` parses files named on its
//! command line, so arbitrary text, truncated traces and corrupted traces
//! must all come back as `Err` — never a panic or a stack overflow.

use proptest::prelude::*;

use sssp_core::config::LongPhaseMode;
use sssp_core::instrument::{BucketRecord, PhaseKind, PhaseRecord, PhaseTimings};
use sssp_core::json;
use sssp_core::RunTrace;

/// Fragments JSON is made of, plus near-misses of each.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\"k\"",
    "0",
    "-",
    "7",
    ".",
    "e",
    "+",
    "null",
    "true",
    "fals",
    " ",
    "\n",
    "\\u",
    "d800",
    "é",
    "18446744073709551616",
    "\"trace\"",
    "\"sssp-run-trace\"",
    "\u{1}",
];

fn sample_trace() -> RunTrace {
    let bucket = BucketRecord {
        bucket: 1,
        settled: 10,
        mode: LongPhaseMode::Push,
        est_push: 100,
        est_pull: 40,
        self_edges: 3,
        backward_edges: 0,
        forward_edges: 9,
        requests: 0,
        responses: 0,
        supersteps: 4,
        local_msgs: 9,
        remote_msgs: 31,
        coalesced_msgs: 6,
    };
    RunTrace {
        backend: "threaded".to_string(),
        ranks: 4,
        supersteps: 4,
        local_msgs: 9,
        remote_msgs: 31,
        remote_bytes: 496,
        coalesced_msgs: 6,
        max_step_send_bytes: 64,
        max_step_recv_bytes: 48,
        hybrid_switch_at: None,
        timings: PhaseTimings {
            short_ns: 5,
            long_push_ns: 6,
            long_pull_ns: 0,
            bf_ns: 0,
        },
        phases: vec![PhaseRecord {
            bucket: 1,
            kind: PhaseKind::LongPush,
            relaxations: 40,
            remote_msgs: 31,
        }],
        buckets: vec![bucket],
        tail: None,
    }
}

fn soup(picks: &[usize]) -> String {
    picks.iter().map(|&i| TOKENS[i % TOKENS.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_never_panics(codes in proptest::collection::vec(any::<u32>(), 0..48)) {
        let text: String = codes
            .iter()
            .map(|&c| char::from_u32(c % 0x250).unwrap_or('?'))
            .collect();
        let _ = RunTrace::from_json(&text);
        if let Ok(v) = json::parse(&text) {
            prop_assert_eq!(json::parse(&v.render()), Ok(v));
        }
    }

    #[test]
    fn token_soup_never_panics_and_roundtrips(picks in proptest::collection::vec(0usize..64, 0..40)) {
        let text = soup(&picks);
        let _ = RunTrace::from_json(&text);
        if let Ok(v) = json::parse(&text) {
            prop_assert_eq!(json::parse(&v.render()), Ok(v));
        }
    }

    #[test]
    fn truncated_traces_are_rejected(cut in any::<prop::sample::Index>()) {
        let text = sample_trace().to_json();
        let body = text.trim_end();
        let prefix = &body[..cut.index(body.len())];
        prop_assert!(RunTrace::from_json(prefix).is_err());
    }

    #[test]
    fn corrupted_traces_never_panic(at in any::<prop::sample::Index>(), picks in proptest::collection::vec(0usize..64, 1..4)) {
        let text = sample_trace().to_json();
        let i = at.index(text.len());
        let corrupted = format!("{}{}{}", &text[..i], soup(&picks), &text[i + 1..]);
        let _ = RunTrace::from_json(&corrupted);
    }
}
