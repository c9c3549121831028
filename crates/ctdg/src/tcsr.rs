//! The T-CSR index: each node's interactions in one time-sorted row.
//!
//! The DTDG stores answer "what does the graph look like at snapshot *t*";
//! the continuous-time sampler instead asks "which interactions touched
//! node *u* strictly before instant *t*, and when". That query wants
//! per-node adjacency ordered by time — a *temporal* CSR, as in TGL:
//!
//! * **Ingest is append-only.** Events arrive in non-decreasing timestamp
//!   order (enforced, typed error otherwise), so pushing each event onto
//!   its endpoints' rows keeps every row time-sorted by construction —
//!   there is never a re-sort. A row is a plain `Vec`: amortised O(1)
//!   push, and `pop` is its exact inverse, so a half-applied batch rolls
//!   back by popping in reverse.
//! * **Lookup is one binary search.** [`TCsr::history`] returns the slice
//!   of a node's row strictly before `t` (`partition_point` on the
//!   timestamps); the sampler reads its draws straight out of that slice.
//!
//! Each event is indexed on **both** endpoints (interaction graphs are
//! queried from either side in TGN-class models), under the same event id,
//! which is the event's index in the append-only [`EventLog`]
//! (`crate::event::EventLog`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stgraph_datasets::TimedEdge;

use crate::CtdgError;

/// One indexed interaction of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// When it happened.
    pub t: u64,
    /// Its event id (position in the event log).
    pub eid: u64,
    /// The other endpoint.
    pub nbr: u32,
}

/// The time-sorted adjacency index (see module docs).
#[derive(Debug, Clone)]
pub struct TCsr {
    adj: Vec<Vec<Entry>>,
    num_events: u64,
    last_t: u64,
    /// Feeds the `ctdg.events` gauge.
    events: Arc<AtomicU64>,
}

/// Equality is over indexed contents — the chaos suite's "bitwise
/// invisible" check. The telemetry gauge handle is identity, not state.
impl PartialEq for TCsr {
    fn eq(&self, other: &TCsr) -> bool {
        self.num_events == other.num_events && self.last_t == other.last_t && self.adj == other.adj
    }
}

impl TCsr {
    /// An empty index over `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> TCsr {
        TCsr {
            adj: vec![Vec::new(); num_nodes],
            num_events: 0,
            last_t: 0,
            events: Arc::default(),
        }
    }

    /// Vertex count.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Events indexed so far (each is listed under both endpoints).
    pub fn num_events(&self) -> u64 {
        self.num_events
    }

    /// Timestamp of the newest indexed event (0 when empty).
    pub fn last_timestamp(&self) -> u64 {
        self.last_t
    }

    /// Total temporal degree of `u` (interactions on either side).
    pub fn degree(&self, u: u32) -> usize {
        self.adj[u as usize].len()
    }

    /// The interactions of `u` strictly before `t`, oldest first — one
    /// binary search over the node's time-sorted row. Entries at exactly
    /// `t` are excluded: sampling at an event's own timestamp must not see
    /// it.
    pub fn history(&self, u: u32, t: u64) -> &[Entry] {
        let row = &self.adj[u as usize];
        &row[..row.partition_point(|e| e.t < t)]
    }

    /// Registers this index's `ctdg.events` gauge with the telemetry
    /// registry. Call once per long-lived index (the train workload and
    /// the bench do); short-lived test indices skip it.
    pub fn install_gauges(&self) {
        let events = Arc::clone(&self.events);
        stgraph_telemetry::register_gauge("ctdg.events", move || {
            events.load(Ordering::Relaxed) as f64
        });
    }

    fn validate(&self, batch: &[TimedEdge]) -> Result<(), CtdgError> {
        let mut last = self.last_t;
        for e in batch {
            if e.t < last {
                return Err(CtdgError::NonMonotonic { t: e.t, last });
            }
            if e.src == e.dst {
                return Err(CtdgError::SelfLoop {
                    node: e.src,
                    t: e.t,
                });
            }
            for node in [e.src, e.dst] {
                if node as usize >= self.adj.len() {
                    return Err(CtdgError::NodeOutOfRange {
                        node,
                        num_nodes: self.adj.len(),
                    });
                }
            }
            last = e.t;
        }
        Ok(())
    }

    /// Appends a batch of events, all-or-nothing. Validation (monotonic
    /// timestamps, no self-loops, nodes in range) runs before any
    /// mutation. The `tcsr.append` fault point fires per event; an
    /// injected fault mid-batch rolls every already-applied event back by
    /// popping in reverse, so a failed batch is bitwise invisible.
    ///
    /// Returns the event id assigned to the batch's first event (ids are
    /// consecutive within a batch).
    pub fn try_ingest_batch(&mut self, batch: &[TimedEdge]) -> Result<u64, CtdgError> {
        let _sp = stgraph_telemetry::span_cat("ctdg.ingest", "ctdg");
        self.validate(batch)?;
        let base_eid = self.num_events;
        for (i, e) in batch.iter().enumerate() {
            if let Err(f) = stgraph_faultline::fault_point!("tcsr.append") {
                // Pop the applied prefix in reverse: pop is push's exact
                // inverse, and the counters only move once the batch lands.
                for ev in batch[..i].iter().rev() {
                    self.adj[ev.dst as usize].pop();
                    self.adj[ev.src as usize].pop();
                }
                stgraph_faultline::note_rollback();
                stgraph_telemetry::counter("ctdg.rollbacks").inc();
                return Err(CtdgError::Fault(f));
            }
            let eid = base_eid + i as u64;
            self.adj[e.src as usize].push(Entry {
                t: e.t,
                eid,
                nbr: e.dst,
            });
            self.adj[e.dst as usize].push(Entry {
                t: e.t,
                eid,
                nbr: e.src,
            });
        }
        if let Some(e) = batch.last() {
            self.last_t = e.t;
        }
        self.num_events += batch.len() as u64;
        self.events.store(self.num_events, Ordering::Relaxed);
        stgraph_telemetry::counter("ctdg.events_ingested").add(batch.len() as u64);
        Ok(base_eid)
    }

    /// Appends a batch, panicking on validation failure (malformed input
    /// is a caller bug on this path; injected faults stay typed via
    /// [`TCsr::try_ingest_batch`]).
    pub fn ingest_batch(&mut self, batch: &[TimedEdge]) -> u64 {
        self.try_ingest_batch(batch)
            .unwrap_or_else(|e| panic!("ingest failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: u32, dst: u32, t: u64) -> TimedEdge {
        TimedEdge { src, dst, t }
    }

    fn entry(t: u64, eid: u64, nbr: u32) -> Entry {
        Entry { t, eid, nbr }
    }

    #[test]
    fn appends_stay_time_sorted_and_indexed_on_both_endpoints() {
        let mut x = TCsr::new(8);
        x.ingest_batch(&[ev(0, 1, 5), ev(2, 0, 5), ev(1, 3, 9)]);
        assert_eq!(x.num_events(), 3);
        assert_eq!(x.last_timestamp(), 9);
        assert_eq!(x.degree(0), 2);
        assert_eq!(x.history(0, 5), &[], "t == query excluded");
        assert_eq!(x.history(0, 6), &[entry(5, 0, 1), entry(5, 1, 2)]);
        assert_eq!(x.history(1, 9), &[entry(5, 0, 0)]);
        assert_eq!(x.history(1, 10), &[entry(5, 0, 0), entry(9, 2, 3)]);
    }

    /// `history(u, t)` equals a brute-force filter of the log for every
    /// node at every instant, across runs of equal timestamps.
    #[test]
    fn history_matches_a_log_filter_at_every_instant() {
        let n = 6u32;
        // Timestamps advance in runs: 0,0,0,1,3,3,3,3,4,6,6,...
        let log: Vec<TimedEdge> = (0..120u32)
            .map(|i| {
                let src = (i * 7) % n;
                let dst = (src + 1 + i % (n - 1)) % n;
                ev(src, dst, (i / 4 + i / 9) as u64)
            })
            .collect();
        let mut x = TCsr::new(n as usize);
        for chunk in log.chunks(13) {
            x.ingest_batch(chunk);
        }
        for t in 0..=x.last_timestamp() + 1 {
            for u in 0..n {
                let want: Vec<Entry> = log
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| (e.src == u || e.dst == u) && e.t < t)
                    .map(|(eid, e)| entry(e.t, eid as u64, if e.src == u { e.dst } else { e.src }))
                    .collect();
                assert_eq!(x.history(u, t), want.as_slice(), "node {u} at t {t}");
            }
        }
    }

    #[test]
    fn validation_errors_are_typed_and_leave_index_untouched() {
        let mut x = TCsr::new(4);
        x.ingest_batch(&[ev(0, 1, 10)]);
        let before = x.clone();
        assert_eq!(
            x.try_ingest_batch(&[ev(1, 2, 3)]),
            Err(CtdgError::NonMonotonic { t: 3, last: 10 })
        );
        assert_eq!(
            x.try_ingest_batch(&[ev(2, 2, 11)]),
            Err(CtdgError::SelfLoop { node: 2, t: 11 })
        );
        assert_eq!(
            x.try_ingest_batch(&[ev(0, 9, 11)]),
            Err(CtdgError::NodeOutOfRange {
                node: 9,
                num_nodes: 4
            })
        );
        // A mid-batch validation error must also leave nothing applied.
        assert!(x.try_ingest_batch(&[ev(0, 1, 12), ev(1, 1, 13)]).is_err());
        assert_eq!(x, before);
    }

    #[test]
    fn equal_ingest_sequences_compare_equal() {
        let batch: Vec<TimedEdge> = (0..100).map(|i| ev(i % 5, 5 + (i % 3), i as u64)).collect();
        let mut a = TCsr::new(10);
        let mut b = TCsr::new(10);
        a.ingest_batch(&batch);
        for chunk in batch.chunks(7) {
            b.ingest_batch(chunk);
        }
        assert_eq!(a, b, "batching must not change the index");
    }
}
