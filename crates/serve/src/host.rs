//! [`EngineHost`] — owns the engine thread so `Send` callers (the network
//! tier, tests, binaries) can serve without touching the `!Send` model.
//!
//! Models built on [`stgraph_tensor::Param`] are reference-counted and must
//! live on exactly one thread. `EngineHost::spawn` takes a *builder
//! closure* instead of an engine: the closure (which is `Send` — it closes
//! over checkpoint entries, dataset handles, registry `Arc`s, all plain
//! data) runs on the freshly spawned engine thread, constructs the
//! [`InferenceEngine`] there, and the thread then serves the shared
//! [`RequestQueue`] until [`EngineHost::shutdown`] closes it.

use crate::engine::{InferenceEngine, RequestQueue, ServeConfig};
use crate::stats::ServeReport;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A handle to a running engine thread plus the queue that feeds it.
pub struct EngineHost {
    queue: Arc<RequestQueue>,
    handle: Option<JoinHandle<ServeReport>>,
}

impl EngineHost {
    /// Spawns the engine thread: `build` runs *on that thread* to construct
    /// the engine (cells are `!Send`; their parts — checkpoint entries,
    /// features, the live graph source — are `Send`), then the thread
    /// serves the returned queue until it is closed.
    pub fn spawn(
        config: ServeConfig,
        build: impl FnOnce() -> InferenceEngine + Send + 'static,
    ) -> EngineHost {
        let queue = Arc::new(RequestQueue::new(config.queue_capacity));
        let q = Arc::clone(&queue);
        let handle = std::thread::Builder::new()
            .name("stgraph-engine".into())
            .spawn(move || {
                let mut engine = build();
                let start = Instant::now();
                engine.run(&q, &config);
                engine.report(start.elapsed())
            })
            .expect("spawn engine thread");
        EngineHost {
            queue,
            handle: Some(handle),
        }
    }

    /// The queue producers submit to. Clone the `Arc` freely across
    /// threads.
    pub fn queue(&self) -> &Arc<RequestQueue> {
        &self.queue
    }

    /// Closes the queue, waits for the engine to drain it, and returns the
    /// run's report.
    pub fn shutdown(mut self) -> ServeReport {
        self.queue.close();
        self.handle
            .take()
            .expect("shutdown called once")
            .join()
            .expect("engine thread panicked")
    }
}

impl Drop for EngineHost {
    /// A dropped host still closes the queue and joins, so no engine
    /// thread ever outlives its handle.
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.queue.close();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::LiveGraph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use stgraph::tgnn::Tgcn;
    use stgraph_dyngraph::source::DtdgSource;
    use stgraph_tensor::nn::ParamSet;
    use stgraph_tensor::Tensor;

    #[test]
    fn host_spawns_serves_and_reports() {
        let src = DtdgSource::from_snapshot_edges(
            4,
            vec![vec![(0, 1), (1, 2), (2, 3)], vec![(0, 1), (2, 3), (3, 0)]],
        );
        let host = EngineHost::spawn(ServeConfig::default(), move || {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let mut ps = ParamSet::new();
            let cell = Tgcn::new(&mut ps, "cell", 2, 3, &mut rng);
            let x = Tensor::rand_uniform((4, 2), -1.0, 1.0, &mut rng);
            let live = LiveGraph::from_source(&src);
            InferenceEngine::new(Box::new(cell), x, live, "seastar")
        });
        let resp = host.queue().submit(2).unwrap().wait().unwrap();
        assert_eq!(resp.node, 2);
        assert_eq!(resp.values.len(), 3);
        let report = host.shutdown();
        assert_eq!(report.queries, 1);
    }

    #[test]
    fn zero_max_batch_still_answers() {
        let src = DtdgSource::from_snapshot_edges(3, vec![vec![(0, 1), (1, 2)]]);
        let config = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        let host = EngineHost::spawn(config, move || {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let mut ps = ParamSet::new();
            let cell = Tgcn::new(&mut ps, "cell", 2, 2, &mut rng);
            let x = Tensor::rand_uniform((3, 2), -1.0, 1.0, &mut rng);
            InferenceEngine::new(Box::new(cell), x, LiveGraph::from_source(&src), "seastar")
        });
        let ticket = host.queue().submit(1).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || tx.send(ticket.wait()));
        match rx.recv_timeout(std::time::Duration::from_secs(20)) {
            Ok(resp) => assert_eq!(resp.unwrap().node, 1),
            Err(_) => {
                // A livelocked engine never drains the queue, so joining it
                // on drop would hang the test binary too.
                std::mem::forget(host);
                panic!("max_batch = 0 livelocked the engine");
            }
        }
        waiter
            .join()
            .expect("waiter thread")
            .expect("receiver alive");
        assert_eq!(host.shutdown().queries, 1);
    }

    #[test]
    fn dropped_host_joins_cleanly() {
        let src = DtdgSource::from_snapshot_edges(3, vec![vec![(0, 1), (1, 2)]]);
        let host = EngineHost::spawn(ServeConfig::default(), move || {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let mut ps = ParamSet::new();
            let cell = Tgcn::new(&mut ps, "cell", 2, 2, &mut rng);
            let x = Tensor::rand_uniform((3, 2), -1.0, 1.0, &mut rng);
            InferenceEngine::new(Box::new(cell), x, LiveGraph::from_source(&src), "seastar")
        });
        drop(host); // must not hang or leak the engine thread
    }
}
