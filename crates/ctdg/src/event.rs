//! The append-only event log and the store that pairs it with its T-CSR
//! index.
//!
//! The log is the system of record: a flat, append-only vector of
//! [`TimedEdge`] events whose index *is* the event id. The
//! [`TCsr`](crate::TCsr) is a derived index over the same events; the
//! [`CtdgStore`] keeps the two in lock-step — a batch lands in both or in
//! neither (the index's `tcsr.append` fault rollback covers the log too,
//! because the log is only extended after the index accepts the batch).

use stgraph_datasets::TimedEdge;

use crate::{CtdgError, TCsr};

/// Append-only timestamped edge-event log; event id = position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<TimedEdge>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event with id `eid`, if recorded.
    pub fn get(&self, eid: u64) -> Option<TimedEdge> {
        self.events.get(eid as usize).copied()
    }

    /// All events in arrival (= id, = time) order.
    pub fn as_slice(&self) -> &[TimedEdge] {
        &self.events
    }
}

/// An event log plus its T-CSR index, mutated only in lock-step.
#[derive(Debug, Clone, PartialEq)]
pub struct CtdgStore {
    log: EventLog,
    index: TCsr,
}

impl CtdgStore {
    /// An empty store over `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> CtdgStore {
        CtdgStore {
            log: EventLog::new(),
            index: TCsr::new(num_nodes),
        }
    }

    /// The system-of-record event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The time-sorted adjacency index.
    pub fn index(&self) -> &TCsr {
        &self.index
    }

    /// Appends a batch to the index and (only on success) the log, so a
    /// faulted batch is bitwise invisible in both. Returns the first
    /// event id of the batch.
    pub fn try_append_batch(&mut self, batch: &[TimedEdge]) -> Result<u64, CtdgError> {
        let base = self.index.try_ingest_batch(batch)?;
        self.log.events.extend_from_slice(batch);
        Ok(base)
    }

    /// Appends a batch, panicking on malformed input (see
    /// [`TCsr::ingest_batch`]).
    pub fn append_batch(&mut self, batch: &[TimedEdge]) -> u64 {
        self.try_append_batch(batch)
            .unwrap_or_else(|e| panic!("append failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_and_index_stay_in_lockstep() {
        let mut s = CtdgStore::new(8);
        let batch = [
            TimedEdge {
                src: 0,
                dst: 1,
                t: 3,
            },
            TimedEdge {
                src: 1,
                dst: 2,
                t: 4,
            },
        ];
        let base = s.append_batch(&batch);
        assert_eq!(base, 0);
        assert_eq!(s.log().len(), 2);
        assert_eq!(s.index().num_events(), 2);
        assert_eq!(s.log().get(1), Some(batch[1]));
        // A rejected batch touches neither side.
        let before = s.clone();
        assert!(s
            .try_append_batch(&[TimedEdge {
                src: 2,
                dst: 2,
                t: 9
            }])
            .is_err());
        assert_eq!(s, before);
    }
}
