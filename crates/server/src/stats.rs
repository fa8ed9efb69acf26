//! Service-level counters, exposed through the `stats` protocol command.

use std::sync::atomic::{AtomicU64, Ordering};

use hanoi_lang::json::counters;

counters! {
    /// Monotonic counters covering every admission, shedding, failure and drain
    /// event the server handles.  All counters are relaxed atomics: they are
    /// operational telemetry, not synchronization.
    #[derive(Debug, Default)]
    pub struct ServerStats {
        /// Client connections accepted.
        pub connections_opened: AtomicU64,
        /// Client connections that ended (any reason).
        pub connections_closed: AtomicU64,
        /// Connections turned away at accept time (connection ceiling).
        pub connections_rejected: AtomicU64,
        /// Connections closed for exceeding the idle or frame timeout
        /// (slow-loris defence).
        pub connections_timed_out: AtomicU64,
        /// Complete frames received (before parsing).
        pub frames_received: AtomicU64,
        /// Frames answered with a structured protocol error (bad JSON, bad
        /// request shape, unknown op, over-deep nesting).
        pub protocol_errors: AtomicU64,
        /// Lines discarded for exceeding the frame byte ceiling.
        pub oversized_frames: AtomicU64,
        /// Complete lines that were not valid UTF-8.
        pub encoding_errors: AtomicU64,
        /// Runs admitted to the queue.
        pub runs_accepted: AtomicU64,
        /// Submits shed because the admission queue was full.
        pub shed_queue_full: AtomicU64,
        /// Submits shed because the client exceeded its in-flight quota.
        pub shed_client_quota: AtomicU64,
        /// Submits shed because the server was draining.
        pub shed_draining: AtomicU64,
        /// Runs that returned a result (any outcome).
        pub runs_completed: AtomicU64,
        /// Runs that ended with an inferred invariant.
        pub runs_invariant: AtomicU64,
        /// Runs that ended cancelled (client cancel, disconnect, watchdog or
        /// drain).
        pub runs_cancelled: AtomicU64,
        /// Runs that ended in a timeout outcome.
        pub runs_timeout: AtomicU64,
        /// Runs that panicked and were isolated (structured `panic` error to the
        /// one client; process and sibling runs unaffected).
        pub runs_panicked: AtomicU64,
        /// Submits rejected because the problem source failed to elaborate.
        pub runs_rejected: AtomicU64,
        /// Runs force-cancelled by the watchdog for outliving their deadline.
        pub watchdog_cancels: AtomicU64,
        /// Run events streamed to clients.
        pub events_sent: AtomicU64,
        /// Frames dropped because the client's write side failed or timed out.
        pub write_errors: AtomicU64,
        /// Cancel commands honoured (a matching in-flight run existed).
        pub cancels_honoured: AtomicU64,
        /// Snapshot files written by the drain checkpoint.
        pub drain_snapshots: AtomicU64,
        /// Connections that detached from a run without ending it (the run kept
        /// executing under its token).
        pub runs_detached: AtomicU64,
        /// Successful `resume` re-attachments.
        pub runs_resumed: AtomicU64,
        /// Journaled frames replayed to resuming clients.
        pub replay_events_sent: AtomicU64,
        /// Resumes whose replay had evicted frames (a `gap` frame was sent).
        pub replay_gaps: AtomicU64,
        /// Detached runs cancelled because nobody resumed within the grace
        /// period.
        pub grace_cancels: AtomicU64,
        /// Submits shed by the per-client token-bucket rate limiter.
        pub rate_limited_sheds: AtomicU64,
        /// Successful hot config reloads (SIGHUP or the `reload` op).
        pub config_reloads: AtomicU64,
        /// Connections closed because no client address could be attributed
        /// (failed `peer_addr`, or a missing/malformed PROXY protocol header
        /// when `proxy_protocol` is enabled).
        pub unattributed_connections: AtomicU64,
    }
}

/// Increments a counter.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_serialize() {
        let stats = ServerStats::default();
        bump(&stats.runs_accepted);
        bump(&stats.runs_accepted);
        bump(&stats.shed_queue_full);
        bump(&stats.runs_resumed);
        bump(&stats.replay_events_sent);
        bump(&stats.replay_events_sent);
        bump(&stats.replay_gaps);
        bump(&stats.rate_limited_sheds);
        bump(&stats.config_reloads);
        let json = stats.to_json();
        assert_eq!(json.get("runs_accepted").unwrap().as_usize(), Some(2));
        assert_eq!(json.get("shed_queue_full").unwrap().as_usize(), Some(1));
        assert_eq!(json.get("drain_snapshots").unwrap().as_usize(), Some(0));
        assert_eq!(json.get("runs_resumed").unwrap().as_usize(), Some(1));
        assert_eq!(json.get("replay_events_sent").unwrap().as_usize(), Some(2));
        assert_eq!(json.get("replay_gaps").unwrap().as_usize(), Some(1));
        assert_eq!(json.get("rate_limited_sheds").unwrap().as_usize(), Some(1));
        assert_eq!(json.get("config_reloads").unwrap().as_usize(), Some(1));
        assert_eq!(json.get("runs_detached").unwrap().as_usize(), Some(0));
        assert_eq!(json.get("grace_cancels").unwrap().as_usize(), Some(0));
        assert_eq!(
            json.render(),
            concat!(
                r#"{"cancels_honoured":0,"config_reloads":1,"connections_closed":0,"#,
                r#""connections_opened":0,"connections_rejected":0,"#,
                r#""connections_timed_out":0,"drain_snapshots":0,"encoding_errors":0,"#,
                r#""events_sent":0,"frames_received":0,"grace_cancels":0,"#,
                r#""oversized_frames":0,"protocol_errors":0,"rate_limited_sheds":1,"#,
                r#""replay_events_sent":2,"replay_gaps":1,"runs_accepted":2,"#,
                r#""runs_cancelled":0,"runs_completed":0,"runs_detached":0,"#,
                r#""runs_invariant":0,"runs_panicked":0,"runs_rejected":0,"#,
                r#""runs_resumed":1,"runs_timeout":0,"shed_client_quota":0,"#,
                r#""shed_draining":0,"shed_queue_full":1,"unattributed_connections":0,"#,
                r#""watchdog_cancels":0,"write_errors":0}"#,
            )
        );
    }
}
