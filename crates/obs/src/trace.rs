//! Structured trace events in a bounded ring buffer.
//!
//! Components record [`TraceData`] variants (request outcomes, ingest,
//! refit/hot-swap lifecycle) stamped with a sequence number and a
//! clock-seam timestamp; `/v1/trace` drains the ring. When the ring is
//! full the **oldest** events are dropped and counted, so a stalled
//! reader can always see the most recent activity plus an honest
//! `dropped` figure.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default ring capacity.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// What happened, structurally.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceData {
    /// One single-user recommend.
    Request {
        /// Hub-assigned request id (0 when the caller has none).
        request_id: u64,
        /// The user asked about.
        user: u32,
        /// Bundle generation that served it.
        generation: u64,
        /// θ-band index, when served by a banded engine.
        band: Option<u32>,
        /// Served from the run-list cache?
        cache_hit: bool,
        /// End-to-end engine time.
        elapsed_us: u64,
    },
    /// One batch recommend against an engine or band.
    Batch {
        /// Number of users in the batch.
        users: u32,
        /// Bundle generation that served it.
        generation: u64,
        /// θ-band index, when served by a banded engine.
        band: Option<u32>,
        /// End-to-end engine time.
        elapsed_us: u64,
    },
    /// One accepted ingest event.
    Ingest {
        /// User the rating came from.
        user: u32,
        /// Item rated.
        item: u32,
        /// θ-band index, when applied by a banded engine.
        band: Option<u32>,
    },
    /// A bundle hot-swap completed on an engine.
    BundleSwap {
        /// θ-band index, when the engine is banded.
        band: Option<u32>,
        /// Generation now being served.
        generation: u64,
    },
    /// A refit pass started from a snapshot.
    RefitStarted {
        /// Generation the snapshot was taken at.
        generation: u64,
        /// Ingest events pending at snapshot time.
        pending: u64,
    },
    /// A refit pass installed its bundle.
    RefitSwapped {
        /// Generation now being served.
        generation: u64,
    },
    /// A refit pass lost the install race and was discarded.
    RefitRaced {
        /// Generation the stale snapshot was taken at.
        generation: u64,
    },
    /// A band's primary dispatch blew its latency budget and the
    /// sub-request was re-issued to another replica (first answer wins).
    BandHedge {
        /// θ-band index.
        band: u32,
        /// Replica index the straggling dispatch went to.
        primary: u32,
        /// Replica index the hedge was re-issued to.
        hedge: u32,
    },
    /// A band's dispatch failed on one replica and was retried on the
    /// next healthy one before surfacing to the caller.
    BandFailover {
        /// θ-band index.
        band: u32,
        /// Replica index that failed.
        from: u32,
        /// Replica index retried next.
        to: u32,
    },
    /// A replica crossed its consecutive-failure threshold and was
    /// ejected from dispatch rotation.
    ReplicaEjected {
        /// θ-band index.
        band: u32,
        /// Replica index ejected.
        replica: u32,
        /// Consecutive failures at ejection time.
        failures: u32,
    },
    /// A health probe found an ejected replica answering again and
    /// restored it to rotation.
    ReplicaRestored {
        /// θ-band index.
        band: u32,
        /// Replica index restored.
        replica: u32,
    },
    /// A node's write-ahead log was replayed on startup.
    WalReplay {
        /// Records recovered (valid prefix).
        records: u64,
        /// Bytes of the valid prefix replayed.
        bytes: u64,
        /// Replay stopped early at a torn or corrupt record.
        corrupted: bool,
    },
    /// A node's write-ahead log was compacted after a refit persisted.
    WalTruncate {
        /// Records retained (racing ingests + dedup-key stubs).
        retained: u64,
        /// Shard-set generation whose install triggered the truncation.
        generation: u64,
    },
    /// The event-driven HTTP front accepted a connection.
    ConnAccept {
        /// Server-assigned connection id.
        conn: u64,
        /// Connections open after the accept.
        open: u64,
    },
    /// The event-driven HTTP front forcibly closed a connection it was
    /// still tracking (the peer had not closed it first).
    ConnEvict {
        /// Server-assigned connection id.
        conn: u64,
        /// Why: `idle`, `deadline`, `capacity`, or `shutdown`.
        reason: &'static str,
    },
    /// One HTTP recommend request carrying per-request overrides (θ, an
    /// exclusion list, an online re-ranker, or a combination).
    RequestOverrides {
        /// Hub-assigned request id.
        request_id: u64,
        /// A `?theta=` override was present.
        theta: bool,
        /// Number of `exclude=` item ids (0 when absent).
        exclude: u32,
        /// The `rerank=` mode token, or `""` when absent.
        rerank: &'static str,
    },
    /// One HTTP request, with per-stage timing.
    Http {
        /// Hub-assigned request id.
        request_id: u64,
        /// Normalized endpoint label (e.g. `/v1/recommend`).
        endpoint: &'static str,
        /// Response status code.
        status: u16,
        /// Time parsing the request head + body.
        parse_us: u64,
        /// Time in routing + backend dispatch.
        dispatch_us: u64,
        /// Time encoding + writing the response.
        write_us: u64,
    },
}

impl TraceData {
    /// Stable discriminant label, used in JSON output and assertions.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceData::Request { .. } => "request",
            TraceData::Batch { .. } => "batch",
            TraceData::Ingest { .. } => "ingest",
            TraceData::BundleSwap { .. } => "bundle_swap",
            TraceData::RefitStarted { .. } => "refit_started",
            TraceData::RefitSwapped { .. } => "refit_swapped",
            TraceData::RefitRaced { .. } => "refit_raced",
            TraceData::BandHedge { .. } => "band_hedge",
            TraceData::BandFailover { .. } => "band_failover",
            TraceData::ReplicaEjected { .. } => "replica_ejected",
            TraceData::ReplicaRestored { .. } => "replica_restored",
            TraceData::WalReplay { .. } => "wal_replay",
            TraceData::WalTruncate { .. } => "wal_truncate",
            TraceData::ConnAccept { .. } => "conn_accept",
            TraceData::ConnEvict { .. } => "conn_evict",
            TraceData::RequestOverrides { .. } => "request_overrides",
            TraceData::Http { .. } => "http",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotone sequence number (gaps reveal drops).
    pub seq: u64,
    /// Clock-seam timestamp, microseconds since clock origin.
    pub at_us: u64,
    /// The event itself.
    pub data: TraceData,
}

/// Bounded drop-oldest event ring.
#[derive(Debug)]
pub struct TraceRing {
    events: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl Default for TraceRing {
    fn default() -> TraceRing {
        TraceRing::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRing {
    /// A ring holding [`DEFAULT_TRACE_CAPACITY`] events.
    pub fn new() -> TraceRing {
        TraceRing::default()
    }

    /// A ring holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> TraceRing {
        TraceRing {
            events: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append one event stamped `at_us`, evicting the oldest if full.
    pub fn record(&self, at_us: u64, data: TraceData) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut events = self.events.lock().unwrap();
        if events.len() == self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(TraceEvent { seq, at_us, data });
    }

    /// Remove and return all buffered events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().drain(..).collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events evicted without being drained.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let ring = TraceRing::with_capacity(2);
        for i in 0..3 {
            ring.record(i * 10, TraceData::RefitSwapped { generation: i });
        }
        assert_eq!(ring.dropped(), 1);
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        assert_eq!(events[1].at_us, 20);
        assert!(ring.is_empty());
        // Draining does not reset the dropped count.
        assert_eq!(ring.dropped(), 1);
    }
}
