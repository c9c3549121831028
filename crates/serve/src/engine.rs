//! The micro-batching inference engine.
//!
//! Models built on [`stgraph_tensor::Param`] are reference-counted and not
//! `Send`, so the model lives on exactly one *engine thread*. The
//! [`RequestQueue`] is the `Send` boundary: any number of producer threads
//! submit node-level queries (and stream advance events) and block on
//! [`Ticket`]s; the engine drains the queue, coalesces pending queries into
//! one batched forward pass per graph generation, and fills the response
//! slots — with rayon parallelism inside the tensor kernels and across the
//! per-slot copies.
//!
//! The hidden-state chain is pinned to generations: exactly one recurrent
//! step runs per generation (even if no queries arrive during it), so the
//! embeddings served at generation `g` are bit-identical to a direct replay
//! `h_g = cell(x, A_g, h_{g-1})` — the property the `serve --verify` flag
//! checks end to end.
//!
//! ## Multiple resident models
//!
//! The engine serves any number of models over the *same* live graph:
//! queries carry a [`ModelKey`] ([`RequestQueue::submit_for`]) and each
//! resident model keeps its own hidden chain and per-generation embedding
//! memo. Unknown keys are resolved through an optional *model provider*
//! hook ([`InferenceEngine::set_model_provider`]) — the registry hook the
//! network tier uses to materialise checkpoints on the engine thread — and
//! the resident set is LRU-capped ([`InferenceEngine::set_max_resident_models`]).
//! Every resident model's recurrent step is pinned per generation, so each
//! model's hidden chain is bit-identical to a direct replay started at the
//! generation the model was installed. Eviction under the cap *parks* the
//! victim's hidden chain and a provider reload resumes it — served
//! embeddings never silently reset across an evict/reload cycle — but the
//! chain does not step for generations that pass while the model is out of
//! residence, so a heavily evicted model's chain is the replay of the
//! generations it was resident for. Size the cap to the expected resident
//! tenant count when exact every-generation chains matter.
//!
//! ## Degradation, not death
//!
//! Overload and failure produce typed [`ServeError`]s, never hangs:
//!
//! * a full queue **sheds** — [`RequestQueue::submit`] returns
//!   [`ServeError::Overloaded`] immediately instead of blocking (advance
//!   events still block: update batches are the stream's ground truth and
//!   are never dropped);
//! * a query older than [`ServeConfig::deadline`] when its batch is
//!   answered gets [`ServeError::DeadlineExceeded`] instead of a stale
//!   wait;
//! * a panic inside the batched forward is caught, every affected slot is
//!   failed with [`ServeError::Internal`], and the engine keeps serving —
//!   all queue/slot locks recover from poisoning, so one bad batch can
//!   never hang later callers.

use crate::ingest::LiveGraph;
use crate::stats::{LatencyRecorder, ServeReport};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::RecurrentCell;
use stgraph_dyngraph::source::UpdateBatch;
use stgraph_tensor::{StateDict, Tape, Tensor};

/// Locks recover from poisoning: a panic while holding a queue or slot
/// lock must degrade that one request, not wedge every later caller.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identifies one resident model inside the engine. The network tier's
/// registry assigns keys (one per published checkpoint version, so a
/// hot-swap is simply a new key); in-process callers that serve a single
/// model can ignore keys entirely and use [`RequestQueue::submit`], which
/// targets [`DEFAULT_MODEL`].
pub type ModelKey = u64;

/// The model key [`RequestQueue::submit`] targets: the cell the engine was
/// constructed with.
pub const DEFAULT_MODEL: ModelKey = 0;

/// Why a query was not answered. Every failure mode a producer can see is
/// typed here — the engine never panics a caller and never leaves a ticket
/// hanging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request queue was full; the query was shed at submit time.
    Overloaded,
    /// The query named a [`ModelKey`] that is neither resident nor
    /// resolvable through the model provider hook.
    UnknownModel(ModelKey),
    /// The query waited longer than [`ServeConfig::deadline`] before its
    /// batch ran; answering it would serve data staler than the caller
    /// accepts.
    DeadlineExceeded {
        /// How long the query had been queued when it was expired.
        waited: Duration,
    },
    /// The queue was closed before (or while) the query was submitted.
    Closed,
    /// The batched forward panicked; the engine recovered but this query's
    /// answer was lost.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "queue full: query shed"),
            ServeError::UnknownModel(key) => write!(f, "unknown model key {key}"),
            ServeError::DeadlineExceeded { waited } => {
                write!(f, "deadline exceeded after {waited:?}")
            }
            ServeError::Closed => write!(f, "request queue closed"),
            ServeError::Internal(what) => write!(f, "engine error: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Engine knobs. The `serve` and `net` binaries start from the default and
/// set fields from their `--max-batch`, `--flush-us`, `--queue-cap` and
/// `--deadline-ms` flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most queries coalesced into one batched forward (default 256; 0 is
    /// served as 1).
    pub max_batch: usize,
    /// How long the engine lingers for stragglers after the first query of
    /// a batch arrives (default 2 ms).
    pub flush_interval: Duration,
    /// Bounded queue depth; queries beyond it are shed (default 1024).
    pub queue_capacity: usize,
    /// Per-request deadline: queries queued longer than this when their
    /// batch is answered fail with [`ServeError::DeadlineExceeded`].
    /// `None` (the default) disables expiry.
    pub deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 256,
            flush_interval: Duration::from_millis(2),
            queue_capacity: 1024,
            deadline: None,
        }
    }
}

/// The answer to one node query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The queried node.
    pub node: u32,
    /// The node's embedding row (hidden width) at `generation`.
    pub values: Vec<f32>,
    /// Graph generation the answer was computed at.
    pub generation: u64,
    /// Submit-to-answer latency (includes queueing).
    pub latency: Duration,
}

#[derive(Debug, Default)]
pub(crate) struct Slot {
    inner: Mutex<Option<Result<QueryResponse, ServeError>>>,
    ready: Condvar,
}

impl Slot {
    /// First write wins: a slot already resolved (answered, expired, or
    /// failed) ignores later fills, so a panic-recovery blanket fill can
    /// never clobber a real answer.
    fn fill(&self, resp: Result<QueryResponse, ServeError>) {
        let mut guard = relock(&self.inner);
        if guard.is_none() {
            *guard = Some(resp);
        }
        drop(guard);
        self.ready.notify_all();
    }
}

/// A claim on a future [`QueryResponse`], returned by
/// [`RequestQueue::submit`].
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the engine resolves this query — an answer, a deadline
    /// expiry, or an internal failure. Never hangs: the engine guarantees
    /// every accepted query's slot is eventually filled, even when the
    /// batch that carried it panicked.
    pub fn wait(self) -> Result<QueryResponse, ServeError> {
        let mut guard = relock(&self.slot.inner);
        loop {
            if let Some(resp) = guard.take() {
                return resp;
            }
            guard = self
                .slot
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

pub(crate) struct PendingQuery {
    node: u32,
    model: ModelKey,
    slot: Arc<Slot>,
    submitted: Instant,
}

enum WorkItem {
    Query(PendingQuery),
    Advance(UpdateBatch),
}

struct QueueState {
    items: VecDeque<WorkItem>,
    closed: bool,
}

/// The bounded MPSC work queue between producer threads and the engine.
/// Items preserve submission order, so an [`RequestQueue::advance`] event
/// acts as a batch boundary: queries before it are answered at the old
/// generation, queries after it at the new one.
pub struct RequestQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    shed: AtomicU64,
}

pub(crate) struct Drained {
    pub(crate) queries: Vec<PendingQuery>,
    pub(crate) advance: Option<UpdateBatch>,
    pub(crate) closed: bool,
}

impl RequestQueue {
    /// A queue holding at most `capacity` in-flight items.
    pub fn new(capacity: usize) -> RequestQueue {
        RequestQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            shed: AtomicU64::new(0),
        }
    }

    /// Blocking push, used for advance events only (ground truth: never
    /// shed). Panics if the queue is already closed — producers own the
    /// close and must not race it against their own advances.
    fn push_blocking(&self, item: WorkItem) {
        let mut st = relock(&self.state);
        while st.items.len() >= self.capacity && !st.closed {
            st = self
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        assert!(!st.closed, "advance on a closed RequestQueue");
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
    }

    /// Enqueues a node query against the [`DEFAULT_MODEL`]. Load-shedding,
    /// not blocking: a full queue returns [`ServeError::Overloaded`]
    /// immediately (and counts the shed in `serve.requests_shed`), a closed
    /// queue returns [`ServeError::Closed`]. Latency is measured from this
    /// call, so queueing delay counts.
    pub fn submit(&self, node: u32) -> Result<Ticket, ServeError> {
        self.submit_for(DEFAULT_MODEL, node)
    }

    /// Enqueues a node query against a specific resident (or
    /// provider-resolvable) model. Same shedding semantics as
    /// [`RequestQueue::submit`].
    pub fn submit_for(&self, model: ModelKey, node: u32) -> Result<Ticket, ServeError> {
        let submitted = Instant::now();
        let slot = Arc::new(Slot::default());
        {
            let mut st = relock(&self.state);
            if st.closed {
                return Err(ServeError::Closed);
            }
            if st.items.len() >= self.capacity {
                drop(st);
                self.shed.fetch_add(1, Ordering::Relaxed);
                stgraph_telemetry::counter("serve.requests_shed").inc();
                return Err(ServeError::Overloaded);
            }
            st.items.push_back(WorkItem::Query(PendingQuery {
                node,
                model,
                slot: Arc::clone(&slot),
                submitted,
            }));
        }
        self.not_empty.notify_one();
        Ok(Ticket { slot })
    }

    /// Enqueues a stream advance: the engine applies the batch to its live
    /// graph after answering everything submitted before this call. Blocks
    /// while the queue is full — update batches are never shed.
    pub fn advance(&self, batch: UpdateBatch) {
        self.push_blocking(WorkItem::Advance(batch));
    }

    /// Marks the stream finished; the engine exits once the queue drains.
    pub fn close(&self) {
        relock(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Queries shed at submit time since this queue was created.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Engine side: blocks for the first item, then lingers up to `flush`
    /// (or until `max` queries) coalescing stragglers. Stops early at an
    /// advance event so generations never mix within a batch.
    ///
    /// Carries the `engine.dequeue` fault point: injected latency models a
    /// slow engine thread (queries age toward their deadline), and an
    /// injected failure turns this call into a spurious empty wake-up —
    /// the run loop just drains again.
    pub(crate) fn drain(&self, max: usize, flush: Duration) -> Drained {
        if stgraph_faultline::fault_point!("engine.dequeue").is_err() {
            let st = relock(&self.state);
            return Drained {
                queries: Vec::new(),
                advance: None,
                closed: st.closed && st.items.is_empty(),
            };
        }
        let mut st = relock(&self.state);
        while st.items.is_empty() && !st.closed {
            st = self
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let mut queries = Vec::new();
        let mut advance = None;
        if !st.items.is_empty() {
            let deadline = Instant::now() + flush;
            loop {
                while queries.len() < max && advance.is_none() {
                    match st.items.pop_front() {
                        Some(WorkItem::Query(q)) => queries.push(q),
                        Some(WorkItem::Advance(b)) => advance = Some(b),
                        None => break,
                    }
                }
                if queries.len() >= max || advance.is_some() || st.closed {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = self
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
                if timeout.timed_out() && st.items.is_empty() {
                    break;
                }
            }
        }
        let closed = st.closed && st.items.is_empty();
        drop(st);
        self.not_full.notify_all();
        Drained {
            queries,
            advance,
            closed,
        }
    }
}

/// One resident model: its cell and its hidden chain. Each resident model
/// steps once per generation, so its chain stays bit-identical to a direct
/// replay from its install point.
struct ModelSlot {
    cell: Box<dyn RecurrentCell>,
    /// `(g, h_g)` of the last step: the hidden state carried into the next
    /// generation's step, and the embeddings served for generation `g`
    /// (the memo hit when `g` is still current).
    chain: Option<(u64, Tensor)>,
    /// Monotone tick of the last query touching this model (LRU order).
    last_used: u64,
}

/// An evicted model's chain, held aside so a provider reload under the
/// same key resumes it. Its generation tag keeps a same-generation
/// evict/reload bit-identical: the reload answers from the parked
/// embeddings instead of re-stepping, which would double-apply the current
/// generation's step.
struct ParkedChain {
    /// Eviction tick (oldest-parked is dropped first past the cap).
    tick: u64,
    chain: (u64, Tensor),
}

/// Resolves a [`ModelKey`] into a freshly-built cell on the engine thread.
/// This is the registry hook: cells are `!Send`, so the network tier hands
/// the engine a closure over `Send` checkpoint data instead of a cell.
pub type ModelProvider = Box<dyn FnMut(ModelKey) -> Option<Box<dyn RecurrentCell>>>;

/// An attached train-while-serving loop: the trainer (its own private
/// cell), the resident model it publishes into, and the serving-side
/// [`ParamSet`] whose `Param` handles are shared with that model's cell —
/// loading a published state dict into it updates the serving weights in
/// place, on the engine thread, between generation boundaries, so the
/// hidden chain survives and no forward ever observes a partial update.
struct OnlineSlot {
    trainer: crate::online::OnlineTrainer,
    key: ModelKey,
    params: stgraph_tensor::nn::ParamSet,
}

/// The single-threaded owner of the resident models + live graph that
/// answers batched queries. Construct it, then call
/// [`InferenceEngine::run`] on the thread that owns it while producers
/// feed the [`RequestQueue`].
pub struct InferenceEngine {
    online: Option<OnlineSlot>,
    models: HashMap<ModelKey, ModelSlot>,
    /// Chain state of LRU-evicted models: a provider reload *resumes* the
    /// chain instead of restarting it at `None`, so eviction does not
    /// silently change served embeddings. Bounded (see
    /// [`InferenceEngine::park_and_remove`]).
    parked: HashMap<ModelKey, ParkedChain>,
    provider: Option<ModelProvider>,
    /// Resident-model cap: loading past it LRU-evicts (never the default).
    max_models: usize,
    tick: u64,
    features: Tensor,
    backend: String,
    live: LiveGraph,
    latencies: LatencyRecorder,
    queries: u64,
    batches: u64,
    forwards: u64,
    expired: u64,
    panics: u64,
    shed_seen: u64,
}

impl InferenceEngine {
    /// A new engine serving `cell` (installed as [`DEFAULT_MODEL`]) over
    /// `live` with node features `features` (`[num_nodes, in_features]`).
    pub fn new(
        cell: Box<dyn RecurrentCell>,
        features: Tensor,
        live: LiveGraph,
        backend: &str,
    ) -> InferenceEngine {
        assert_eq!(
            features.rows(),
            live.num_nodes(),
            "feature rows must match the live graph's node count"
        );
        let mut models = HashMap::new();
        models.insert(
            DEFAULT_MODEL,
            ModelSlot {
                cell,
                chain: None,
                last_used: 0,
            },
        );
        InferenceEngine {
            online: None,
            models,
            parked: HashMap::new(),
            provider: None,
            max_models: 8,
            tick: 0,
            features,
            backend: backend.to_string(),
            live,
            latencies: LatencyRecorder::new(),
            queries: 0,
            batches: 0,
            forwards: 0,
            expired: 0,
            panics: 0,
            shed_seen: 0,
        }
    }

    /// The live graph (read access for callers/tests).
    pub fn live(&self) -> &LiveGraph {
        &self.live
    }

    /// Installs (or hot-swaps) a resident model under `key`. The new
    /// model's hidden chain starts at the *current* generation; a replaced
    /// model's chain and memo are dropped atomically with the swap — no
    /// batch ever mixes old and new weights, because the swap happens on
    /// the engine thread between batches.
    pub fn install_model(&mut self, key: ModelKey, cell: Box<dyn RecurrentCell>) {
        self.evict_to_fit(key);
        // An explicit install is new weights: any chain parked for this key
        // belongs to the replaced model and must not resume under it.
        self.parked.remove(&key);
        self.tick += 1;
        self.models.insert(
            key,
            ModelSlot {
                cell,
                chain: None,
                last_used: self.tick,
            },
        );
    }

    /// Sets the hook consulted when a query names a non-resident
    /// [`ModelKey`]: the provider builds the cell on the engine thread
    /// (typically from registry-held checkpoint entries). Returning `None`
    /// fails the query with [`ServeError::UnknownModel`].
    pub fn set_model_provider(&mut self, provider: ModelProvider) {
        self.provider = Some(provider);
    }

    /// Caps the resident-model set (minimum 1). Loading a model past the
    /// cap evicts the least-recently-queried resident model — never the
    /// [`DEFAULT_MODEL`] and never the key being loaded. The victim's
    /// hidden chain is parked and resumes on provider reload (see the
    /// module docs for the exact chain semantics across eviction).
    pub fn set_max_resident_models(&mut self, n: usize) {
        self.max_models = n.max(1);
    }

    /// Number of models currently resident.
    pub fn resident_models(&self) -> usize {
        self.models.len()
    }

    /// Attaches a train-while-serving loop to the resident model `key`.
    /// `params` must share its `Param` handles with that model's cell (the
    /// `build_cell` / `build_resident_cell` pattern): each weight
    /// generation the trainer publishes is loaded into it in place on the
    /// engine thread, between generation boundaries, so forwards memoised
    /// for generation `g` keep their weights and generation `g+1` sees the
    /// new ones whole. The key is exempt from LRU eviction while attached.
    pub fn attach_online(
        &mut self,
        trainer: crate::online::OnlineTrainer,
        key: ModelKey,
        params: stgraph_tensor::nn::ParamSet,
    ) {
        assert!(
            self.models.contains_key(&key),
            "attach_online requires a resident model"
        );
        self.online = Some(OnlineSlot {
            trainer,
            key,
            params,
        });
    }

    /// Detaches and returns the online trainer, if one is attached.
    pub fn take_online(&mut self) -> Option<crate::online::OnlineTrainer> {
        self.online.take().map(|s| s.trainer)
    }

    /// Stats of the attached online trainer, if any.
    pub fn online_stats(&self) -> Option<crate::online::OnlineStats> {
        self.online.as_ref().map(|s| s.trainer.stats())
    }

    /// Runs the attached trainer against a freshly applied stream batch and
    /// installs any published weight generation into the serving params.
    fn online_advance(&mut self, batch: &UpdateBatch) {
        let Some(mut slot) = self.online.take() else {
            return;
        };
        let generation = self.live.generation();
        let (_, snap) = self.live.snapshot();
        match slot
            .trainer
            .on_advance(generation, batch, snap, &self.features)
        {
            Ok(Some(published)) => {
                if slot.params.try_load_state_dict(&published.entries).is_err() {
                    stgraph_telemetry::counter("online.publish_rejected").inc();
                }
            }
            Ok(None) => {}
            Err(_) => {
                // Typed fault: the step rolled back bitwise and the trainer
                // halted itself. Serving continues on the last generation.
                stgraph_telemetry::counter("online.faults").inc();
            }
        }
        self.online = Some(slot);
    }

    /// LRU-evicts until there is room for `incoming` under the cap. The
    /// [`DEFAULT_MODEL`], the incoming key, and the online-attached model
    /// (whose serving `ParamSet` is live-updated in place) are never
    /// victims.
    fn evict_to_fit(&mut self, incoming: ModelKey) {
        let online_key = self.online.as_ref().map(|s| s.key);
        while self.models.len() >= self.max_models && !self.models.contains_key(&incoming) {
            let victim = self
                .models
                .iter()
                .filter(|(k, _)| **k != DEFAULT_MODEL && **k != incoming && Some(**k) != online_key)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    self.park_and_remove(k);
                    stgraph_telemetry::counter("serve.model_evictions").inc();
                }
                None => break, // only the default left: cap cannot shrink further
            }
        }
    }

    /// Removes `key` from the resident set, parking its hidden chain so a
    /// later provider reload resumes it (same weights, same key) instead of
    /// restarting at `None` — without this, LRU eviction under tenant
    /// pressure would silently change served embeddings. The side table is
    /// bounded at `4 * max_models` chains; past that the oldest parked
    /// chain is dropped and that model restarts on reload (the documented
    /// cold-start behavior, now reserved for long-gone keys).
    fn park_and_remove(&mut self, key: ModelKey) {
        if let Some(slot) = self.models.remove(&key) {
            if let Some(chain) = slot.chain {
                self.tick += 1;
                let tick = self.tick;
                self.parked.insert(key, ParkedChain { tick, chain });
            }
        }
        let cap = self.max_models.saturating_mul(4).max(8);
        while self.parked.len() > cap {
            let oldest = self
                .parked
                .iter()
                .min_by_key(|(_, p)| p.tick)
                .map(|(k, _)| *k);
            match oldest {
                Some(k) => {
                    self.parked.remove(&k);
                }
                None => break,
            }
        }
    }

    /// Runs model `key`'s recurrent step for the current generation unless
    /// its embeddings are already memoised, resolving non-resident keys
    /// through the provider hook first. Returns `(generation, embeddings)`.
    fn ensure_forward(&mut self, key: ModelKey) -> Result<(u64, Tensor), ServeError> {
        if !self.models.contains_key(&key) {
            let cell = match self.provider.as_mut().and_then(|p| p(key)) {
                Some(c) => c,
                None => {
                    stgraph_telemetry::counter("serve.unknown_model").inc();
                    return Err(ServeError::UnknownModel(key));
                }
            };
            stgraph_telemetry::counter("serve.model_loads").inc();
            // Take the parked chain *before* install_model clears it: a
            // provider reload is the same published weights under the same
            // key, so the evicted chain resumes rather than restarts.
            let resumed = self.parked.remove(&key);
            self.install_model(key, cell);
            if let Some(p) = resumed {
                let slot = self.models.get_mut(&key).expect("just installed");
                slot.chain = Some(p.chain);
                stgraph_telemetry::counter("serve.model_chain_resumes").inc();
            }
        }
        self.tick += 1;
        let tick = self.tick;
        let generation = self.live.generation();
        {
            let slot = self.models.get_mut(&key).expect("resident");
            slot.last_used = tick;
            if let Some((g, emb)) = &slot.chain {
                if *g == generation {
                    return Ok((*g, emb.clone()));
                }
            }
        }
        let _sp = stgraph_telemetry::span_cat("serve.forward", "serve");
        let (g, snap) = self.live.snapshot();
        let exec = TemporalExecutor::new(create_backend(&self.backend), GraphSource::Static(snap));
        let tape = Tape::new();
        let x = tape.constant(self.features.clone());
        let slot = self.models.get_mut(&key).expect("resident");
        let h_prev = slot.chain.as_ref().map(|(_, t)| tape.constant(t.clone()));
        let h = slot.cell.step(&tape, &exec, 0, &x, h_prev.as_ref());
        let emb = h.value().clone();
        // Inference only: the executor (and its stacks) drop here; no
        // backward pass ever runs, so nothing accumulates across steps.
        slot.chain = Some((g, emb.clone()));
        self.forwards += 1;
        Ok((g, emb))
    }

    /// Answers one coalesced micro-batch: expires overdue queries, groups
    /// the rest by model, runs a single gather over each model's embeddings
    /// for the generation, and fills response slots in parallel. A panic
    /// anywhere inside is caught and converted into [`ServeError::Internal`]
    /// on every still-pending slot of that model's group — the engine
    /// outlives its worst batch, and one model's panic never fails another
    /// model's queries.
    fn answer(&mut self, batch: Vec<PendingQuery>, deadline: Option<Duration>) {
        let _sp = stgraph_telemetry::span_cat("serve.answer", "serve");
        // Expire queries that have already waited past the deadline; the
        // remainder get answered fresh.
        let (live, overdue): (Vec<PendingQuery>, Vec<PendingQuery>) = match deadline {
            Some(d) => {
                let now = Instant::now();
                batch
                    .into_iter()
                    .partition(|q| now.saturating_duration_since(q.submitted) <= d)
            }
            None => (batch, Vec::new()),
        };
        if !overdue.is_empty() {
            self.expired += overdue.len() as u64;
            stgraph_telemetry::counter("serve.deadline_expired").add(overdue.len() as u64);
            let now = Instant::now();
            for q in &overdue {
                q.slot.fill(Err(ServeError::DeadlineExceeded {
                    waited: now.saturating_duration_since(q.submitted),
                }));
            }
        }
        if live.is_empty() {
            return;
        }
        // Group by model key (deterministic order); within a group the
        // arrival order is preserved.
        let mut groups: BTreeMap<ModelKey, Vec<PendingQuery>> = BTreeMap::new();
        for q in live {
            groups.entry(q.model).or_default().push(q);
        }
        for (model, group) in groups {
            let outcome = catch_unwind(AssertUnwindSafe(|| self.answer_inner(model, &group)));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    // Typed resolution failure (unknown model): every query
                    // in the group gets the same typed error.
                    for q in &group {
                        q.slot.fill(Err(e.clone()));
                    }
                }
                Err(panic) => {
                    let what = panic_message(&panic);
                    self.panics += 1;
                    stgraph_telemetry::counter("serve.forward_panics").inc();
                    // Blanket-fail whatever the panic left unanswered;
                    // first-write-wins on the slot keeps already-delivered
                    // answers intact.
                    for q in &group {
                        q.slot.fill(Err(ServeError::Internal(what.clone())));
                    }
                }
            }
        }
    }

    fn answer_inner(&mut self, model: ModelKey, batch: &[PendingQuery]) -> Result<(), ServeError> {
        let (generation, emb) = self.ensure_forward(model)?;
        let idx: Vec<u32> = batch.iter().map(|q| q.node).collect();
        let rows = emb.gather_rows(&idx);
        let width = self.models[&model].cell.hidden_size();
        let data = rows.data();
        let done = Instant::now();
        batch.par_iter().enumerate().for_each(|(i, q)| {
            q.slot.fill(Ok(QueryResponse {
                node: q.node,
                values: data[i * width..(i + 1) * width].to_vec(),
                generation,
                latency: done.saturating_duration_since(q.submitted),
            }));
        });
        // The registry copy feeds the Prometheus exposition; the engine's
        // own recorder (exact up to its sample cap) produces the report.
        let registry = stgraph_telemetry::histogram("serve.latency_ns");
        for q in batch {
            let latency = done.saturating_duration_since(q.submitted);
            self.latencies.record(latency);
            registry.record_duration(latency);
        }
        self.queries += batch.len() as u64;
        self.batches += 1;
        Ok(())
    }

    /// Serves until the queue is closed and drained. Each advance event
    /// first pins the outgoing generation's recurrent step for *every*
    /// resident model (so each hidden chain covers every generation,
    /// queried or not), then applies the update batch (which retries
    /// injected faults with backoff inside [`LiveGraph::apply`]).
    ///
    /// The pinned steps run under the same panic isolation as the query
    /// path: a model whose forward panics here is quarantined (removed from
    /// the resident set, its chain dropped) instead of staying resident and
    /// re-panicking on the next advance — one model's bad step never takes
    /// down the engine thread or its neighbours' queries. A quarantined
    /// provider-backed model reloads with a fresh chain on its next query;
    /// a quarantined [`DEFAULT_MODEL`] with no provider fails subsequent
    /// queries with the typed [`ServeError::UnknownModel`].
    pub fn run(&mut self, queue: &RequestQueue, config: &ServeConfig) {
        // A zero cap would drain nothing while queries wait: a livelock.
        let max_batch = config.max_batch.max(1);
        loop {
            let drained = queue.drain(max_batch, config.flush_interval);
            if !drained.queries.is_empty() {
                self.answer(drained.queries, config.deadline);
            }
            if let Some(batch) = drained.advance {
                let resident: Vec<ModelKey> = self.models.keys().copied().collect();
                for key in resident {
                    // Resident keys never hit the provider, so the Ok(Err)
                    // arm (unknown model) is unreachable here; only the
                    // panic arm carries behavior.
                    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| self.ensure_forward(key)))
                    {
                        let _ = panic_message(&panic);
                        self.panics += 1;
                        stgraph_telemetry::counter("serve.forward_panics").inc();
                        stgraph_telemetry::counter("serve.model_quarantined").inc();
                        // Quarantine, don't park: resuming the chain would
                        // replay the same step that just panicked.
                        self.models.remove(&key);
                        self.parked.remove(&key);
                    }
                }
                {
                    let _sp = stgraph_telemetry::span_cat("serve.ingest", "serve");
                    self.live.apply(&batch);
                }
                // Train-while-serving: one incremental step + atomic weight
                // publish per applied batch, after the pinned forwards above
                // sealed generation `g` and before any forward of `g+1`.
                self.online_advance(&batch);
            }
            if drained.closed {
                self.shed_seen = queue.shed();
                break;
            }
        }
    }

    /// The run's report (percentiles, throughput, ingest + pool + mem +
    /// resilience counters).
    pub fn report(&mut self, elapsed: Duration) -> ServeReport {
        ServeReport {
            queries: self.queries,
            batches: self.batches,
            forwards: self.forwards,
            generation: self.live.generation(),
            p50: self.latencies.p50(),
            p95: self.latencies.p95(),
            p99: self.latencies.p99(),
            mean: self.latencies.mean(),
            elapsed,
            ingest: self.live.stats(),
            pool: stgraph_tensor::pool::stats(),
            mem: stgraph_tensor::mem::all_stats(),
            shed: self.shed_seen,
            expired: self.expired,
            panics: self.panics,
            faults_injected: stgraph_faultline::injected_count(),
            online: self.online_stats(),
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("forward panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("forward panicked: {s}")
    } else {
        "forward panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use stgraph::tgnn::Tgcn;
    use stgraph_dyngraph::source::DtdgSource;
    use stgraph_tensor::autograd::Var;
    use stgraph_tensor::nn::ParamSet;

    fn setup() -> (DtdgSource, Tensor, ParamSet, Tgcn) {
        let src = DtdgSource::from_snapshot_edges(
            6,
            vec![
                vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                vec![(0, 1), (2, 3), (3, 4), (4, 5), (5, 0)],
                vec![(0, 1), (3, 4), (4, 5), (5, 0), (1, 4)],
            ],
        );
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut ps = ParamSet::new();
        let cell = Tgcn::new(&mut ps, "cell", 3, 4, &mut rng);
        let x = Tensor::rand_uniform((6, 3), -1.0, 1.0, &mut rng);
        (src, x, ps, cell)
    }

    /// Direct replay oracle: `h_g = cell(x, A_g, h_{g-1})` for every
    /// generation, no queue or batching involved.
    fn direct_chain(src: &DtdgSource, x: &Tensor, cell: &Tgcn) -> Vec<Tensor> {
        let mut live = LiveGraph::from_source(src);
        let mut h: Option<Tensor> = None;
        let mut out = Vec::new();
        for g in 0..src.num_timestamps() {
            let (_, snap) = live.snapshot();
            let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap));
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let hv = h.clone().map(|t| tape.constant(t));
            let new = cell.step(&tape, &exec, 0, &xv, hv.as_ref());
            h = Some(new.value().clone());
            out.push(new.value().clone());
            if g + 1 < src.num_timestamps() {
                live.apply(&src.diffs()[g]);
            }
        }
        out
    }

    #[test]
    fn batched_answers_match_direct_forward_bitwise() {
        let (src, x, _ps, cell) = setup();
        let expected = direct_chain(&src, &x, &cell);
        let live = LiveGraph::from_source(&src);
        let mut engine = InferenceEngine::new(Box::new(cell), x, live, "seastar");
        let queue = RequestQueue::new(64);
        let config = ServeConfig {
            flush_interval: Duration::from_micros(200),
            ..ServeConfig::default()
        };
        let diffs = src.diffs();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                let mut responses = Vec::new();
                for g in 0..3u64 {
                    let tickets: Vec<Ticket> = (0..6).map(|n| queue.submit(n).unwrap()).collect();
                    responses.extend(tickets.into_iter().map(|t| t.wait().unwrap()));
                    if g < 2 {
                        queue.advance(diffs[g as usize].clone());
                    }
                }
                queue.close();
                responses
            });
            engine.run(&queue, &config);
            let responses = producer.join().unwrap();
            assert_eq!(responses.len(), 18);
            for resp in responses {
                let want = &expected[resp.generation as usize];
                let row: Vec<u32> = (0..4)
                    .map(|j| want.at(resp.node as usize, j).to_bits())
                    .collect();
                let got: Vec<u32> = resp.values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, row, "node {} gen {}", resp.node, resp.generation);
            }
        });
        let report = engine.report(Duration::from_millis(1));
        assert_eq!(report.queries, 18);
        assert_eq!(report.forwards, 3, "one forward per generation");
        assert_eq!(report.generation, 2);
        assert!(report.p99 >= report.p50);
        assert_eq!(report.shed, 0);
        assert_eq!(report.expired, 0);
    }

    #[test]
    fn queries_coalesce_into_few_batches() {
        let (src, x, _ps, cell) = setup();
        let live = LiveGraph::from_source(&src);
        let mut engine = InferenceEngine::new(Box::new(cell), x, live, "seastar");
        let queue = RequestQueue::new(256);
        let config = ServeConfig {
            max_batch: 64,
            flush_interval: Duration::from_millis(20),
            ..ServeConfig::default()
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let tickets: Vec<Ticket> = (0..48).map(|i| queue.submit(i % 6).unwrap()).collect();
                for t in tickets {
                    t.wait().unwrap();
                }
                queue.close();
            });
            engine.run(&queue, &config);
        });
        let report = engine.report(Duration::from_millis(1));
        assert_eq!(report.queries, 48);
        assert_eq!(report.forwards, 1, "one generation, one forward");
        assert!(
            report.batches <= 4,
            "48 queries should coalesce, got {} batches",
            report.batches
        );
    }

    #[test]
    fn hidden_chain_covers_unqueried_generations() {
        let (src, x, _ps, cell) = setup();
        let expected = direct_chain(&src, &x, &cell);
        let live = LiveGraph::from_source(&src);
        let mut engine = InferenceEngine::new(Box::new(cell), x, live, "seastar");
        let queue = RequestQueue::new(16);
        let config = ServeConfig::default();
        let diffs = src.diffs();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                // No queries at generation 0 or 1 — only at the last one.
                queue.advance(diffs[0].clone());
                queue.advance(diffs[1].clone());
                let t = queue.submit(2).unwrap();
                let resp = t.wait().unwrap();
                queue.close();
                resp
            });
            engine.run(&queue, &config);
            let resp = producer.join().unwrap();
            assert_eq!(resp.generation, 2);
            let want: Vec<u32> = (0..4).map(|j| expected[2].at(2, j).to_bits()).collect();
            let got: Vec<u32> = resp.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "skipped generations must still advance h");
        });
        // Generations 0 and 1 each got their pinned forward.
        assert_eq!(engine.report(Duration::from_millis(1)).forwards, 3);
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        // No engine thread at all: if submit blocked on a full queue this
        // test would deadlock. It must return Overloaded immediately.
        let queue = RequestQueue::new(2);
        let t1 = queue.submit(0);
        let t2 = queue.submit(1);
        assert!(t1.is_ok() && t2.is_ok());
        assert_eq!(queue.submit(2).unwrap_err(), ServeError::Overloaded);
        assert_eq!(queue.submit(3).unwrap_err(), ServeError::Overloaded);
        assert_eq!(queue.shed(), 2);
        queue.close();
        assert_eq!(queue.submit(4).unwrap_err(), ServeError::Closed);
    }

    #[test]
    fn deadline_expires_stale_queries_with_typed_error() {
        let (src, x, _ps, cell) = setup();
        let live = LiveGraph::from_source(&src);
        let mut engine = InferenceEngine::new(Box::new(cell), x, live, "seastar");
        let queue = RequestQueue::new(16);
        let config = ServeConfig {
            deadline: Some(Duration::ZERO), // everything is instantly stale
            flush_interval: Duration::from_micros(100),
            ..ServeConfig::default()
        };
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                let t = queue.submit(0).unwrap();
                let err = t.wait().unwrap_err();
                queue.close();
                err
            });
            engine.run(&queue, &config);
            match producer.join().unwrap() {
                ServeError::DeadlineExceeded { .. } => {}
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        });
        let report = engine.report(Duration::from_millis(1));
        assert_eq!(report.expired, 1);
        assert_eq!(report.queries, 0, "expired queries are not answered");
    }

    /// A cell that panics on its first step, then works: the regression
    /// case for the Drop/unwind audit. Before poison recovery, the panic
    /// inside the batched forward poisoned the slot/queue mutexes and every
    /// later `Ticket::wait` hung forever.
    struct FaultyCell {
        inner: Tgcn,
        panics_left: std::cell::Cell<u32>,
    }

    impl RecurrentCell for FaultyCell {
        fn hidden_size(&self) -> usize {
            self.inner.hidden_size()
        }

        fn step<'t>(
            &self,
            tape: &'t Tape,
            exec: &TemporalExecutor,
            t: usize,
            x: &Var<'t>,
            h: Option<&Var<'t>>,
        ) -> Var<'t> {
            if self.panics_left.get() > 0 {
                self.panics_left.set(self.panics_left.get() - 1);
                panic!("injected forward panic");
            }
            self.inner.step(tape, exec, t, x, h)
        }
    }

    #[test]
    fn forward_panic_fails_batch_without_hanging_later_queries() {
        let (src, x, _ps, cell) = setup();
        let live = LiveGraph::from_source(&src);
        let faulty = FaultyCell {
            inner: cell,
            panics_left: std::cell::Cell::new(1),
        };
        let mut engine = InferenceEngine::new(Box::new(faulty), x, live, "seastar");
        let queue = RequestQueue::new(16);
        let config = ServeConfig {
            flush_interval: Duration::from_micros(100),
            ..ServeConfig::default()
        };
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                // First query rides the panicking forward.
                let first = queue.submit(0).unwrap().wait();
                // Later queries must still get real answers — this wait
                // hangs forever if the panic poisoned the locks.
                let second = queue.submit(1).unwrap().wait();
                queue.close();
                (first, second)
            });
            engine.run(&queue, &config);
            let (first, second) = producer.join().unwrap();
            match first {
                Err(ServeError::Internal(msg)) => {
                    assert!(msg.contains("injected forward panic"), "{msg}")
                }
                other => panic!("expected Internal error, got {other:?}"),
            }
            let resp = second.expect("engine must keep serving after a panic");
            assert_eq!(resp.node, 1);
            assert_eq!(resp.values.len(), 4);
        });
        let report = engine.report(Duration::from_millis(1));
        assert_eq!(report.panics, 1);
        assert_eq!(report.queries, 1, "only the post-panic query answered");
    }

    /// Two resident models answer interleaved queries over the same live
    /// graph, each bit-identical to its own direct replay, and every
    /// resident hidden chain advances across generations.
    #[test]
    fn multiple_resident_models_serve_independent_chains() {
        let (src, x, _ps, cell_a) = setup();
        let cell_b = {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            let mut ps = ParamSet::new();
            Tgcn::new(&mut ps, "cell", 3, 4, &mut rng)
        };
        let expected_a = direct_chain(&src, &x, &cell_a);
        let expected_b = direct_chain(&src, &x, &cell_b);
        let live = LiveGraph::from_source(&src);
        let mut engine = InferenceEngine::new(Box::new(cell_a), x, live, "seastar");
        engine.install_model(7, Box::new(cell_b));
        assert_eq!(engine.resident_models(), 2);
        let queue = RequestQueue::new(64);
        let config = ServeConfig {
            flush_interval: Duration::from_micros(200),
            ..ServeConfig::default()
        };
        let diffs = src.diffs();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                let mut out = Vec::new();
                for g in 0..3u64 {
                    let tickets: Vec<(ModelKey, Ticket)> = (0..6)
                        .flat_map(|n| {
                            vec![
                                (DEFAULT_MODEL, queue.submit(n).unwrap()),
                                (7, queue.submit_for(7, n).unwrap()),
                            ]
                        })
                        .collect();
                    out.extend(
                        tickets
                            .into_iter()
                            .map(|(m, t)| (m, t.wait().expect("both models answer"))),
                    );
                    if g < 2 {
                        queue.advance(diffs[g as usize].clone());
                    }
                }
                queue.close();
                out
            });
            engine.run(&queue, &config);
            let responses = producer.join().unwrap();
            assert_eq!(responses.len(), 36);
            for (model, resp) in responses {
                let want = if model == DEFAULT_MODEL {
                    &expected_a[resp.generation as usize]
                } else {
                    &expected_b[resp.generation as usize]
                };
                let row: Vec<u32> = (0..4)
                    .map(|j| want.at(resp.node as usize, j).to_bits())
                    .collect();
                let got: Vec<u32> = resp.values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got, row,
                    "model {model} node {} gen {}",
                    resp.node, resp.generation
                );
            }
        });
        let report = engine.report(Duration::from_millis(1));
        assert_eq!(
            report.forwards, 6,
            "one pinned forward per generation per resident model"
        );
    }

    /// An unknown model key fails with a typed error (never a hang), and a
    /// provider hook resolves keys lazily on the engine thread.
    #[test]
    fn unknown_model_is_typed_and_provider_resolves_lazily() {
        let (src, x, _ps, cell) = setup();
        let live = LiveGraph::from_source(&src);
        let mut engine = InferenceEngine::new(Box::new(cell), x, live, "seastar");
        engine.set_model_provider(Box::new(|key| {
            (key == 42).then(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                let mut ps = ParamSet::new();
                Box::new(Tgcn::new(&mut ps, "cell", 3, 4, &mut rng)) as Box<dyn RecurrentCell>
            })
        }));
        let queue = RequestQueue::new(16);
        let config = ServeConfig {
            flush_interval: Duration::from_micros(100),
            ..ServeConfig::default()
        };
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                let bad = queue.submit_for(9000, 0).unwrap().wait();
                let good = queue.submit_for(42, 1).unwrap().wait();
                queue.close();
                (bad, good)
            });
            engine.run(&queue, &config);
            let (bad, good) = producer.join().unwrap();
            assert_eq!(bad.unwrap_err(), ServeError::UnknownModel(9000));
            let resp = good.expect("provider-resolved model must serve");
            assert_eq!(resp.values.len(), 4);
        });
        assert_eq!(engine.resident_models(), 2);
    }

    /// The resident-model cap LRU-evicts provider-loaded models but never
    /// the default one.
    #[test]
    fn model_cap_evicts_lru_but_never_default() {
        let (src, x, _ps, cell) = setup();
        let live = LiveGraph::from_source(&src);
        let mut engine = InferenceEngine::new(Box::new(cell), x, live, "seastar");
        engine.set_max_resident_models(2);
        let fresh = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut ps = ParamSet::new();
            Box::new(Tgcn::new(&mut ps, "cell", 3, 4, &mut rng)) as Box<dyn RecurrentCell>
        };
        engine.install_model(1, fresh(1));
        assert_eq!(engine.resident_models(), 2);
        engine.install_model(2, fresh(2));
        assert_eq!(engine.resident_models(), 2, "cap holds");
        assert!(engine.models.contains_key(&DEFAULT_MODEL), "default pinned");
        assert!(engine.models.contains_key(&2), "newest resident");
        assert!(!engine.models.contains_key(&1), "LRU victim evicted");
    }

    /// LRU eviction parks the victim's hidden chain and a provider reload
    /// resumes it: served embeddings across an evict/reload cycle are
    /// bit-identical to never having evicted at that generation.
    #[test]
    fn evicted_model_resumes_hidden_chain_on_reload() {
        let (src, x, _ps, cell) = setup();
        let live = LiveGraph::from_source(&src);
        let mut engine = InferenceEngine::new(Box::new(cell), x, live, "seastar");
        engine.set_max_resident_models(2);
        engine.set_model_provider(Box::new(|key| {
            (key == 42 || key == 43).then(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(key);
                let mut ps = ParamSet::new();
                Box::new(Tgcn::new(&mut ps, "cell", 3, 4, &mut rng)) as Box<dyn RecurrentCell>
            })
        }));
        let diffs = src.diffs();
        // Establish 42's chain across two generations: h1 = step(x, A1, h0)
        // only comes out right if h0 survives the round trip below.
        engine.ensure_forward(42).unwrap();
        engine.live.apply(&diffs[0]);
        let (g, before) = engine.ensure_forward(42).unwrap();
        assert_eq!(g, 1);
        // Loading 43 pushes 42 past the cap (the default is never evicted).
        engine.ensure_forward(43).unwrap();
        assert!(!engine.models.contains_key(&42), "42 LRU-evicted");
        // Same-generation reload: the resumed memo answers, bit-identical —
        // a chain restart at None would produce step(x, A1, None) instead.
        let (g, after) = engine.ensure_forward(42).unwrap();
        assert_eq!(g, 1);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&before),
            bits(&after),
            "evict/reload must not change served embeddings"
        );
        // Next generation steps from the resumed hidden, not from scratch.
        engine.live.apply(&diffs[1]);
        let (g, resumed) = engine.ensure_forward(42).unwrap();
        assert_eq!(g, 2);
        assert_ne!(bits(&before), bits(&resumed), "chain advanced");
    }

    /// A model whose *pinned advance* step panics (no query involved) is
    /// quarantined instead of staying resident: before this guard the
    /// second advance re-ran the panicking forward outside catch_unwind,
    /// killed the engine thread, and every later `Ticket::wait` hung.
    #[test]
    fn advance_path_panic_quarantines_model_and_engine_survives() {
        let (src, x, _ps, cell) = setup();
        let live = LiveGraph::from_source(&src);
        let mut engine = InferenceEngine::new(Box::new(cell), x, live, "seastar");
        let faulty_inner = {
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            let mut ps = ParamSet::new();
            Tgcn::new(&mut ps, "cell", 3, 4, &mut rng)
        };
        engine.install_model(
            7,
            Box::new(FaultyCell {
                inner: faulty_inner,
                panics_left: std::cell::Cell::new(u32::MAX), // always panics
            }),
        );
        let queue = RequestQueue::new(16);
        let config = ServeConfig {
            flush_interval: Duration::from_micros(100),
            ..ServeConfig::default()
        };
        let diffs = src.diffs();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                // Model 7's first-ever step is the pinned forward this
                // advance triggers — it panics on the engine thread.
                queue.advance(diffs[0].clone());
                // FIFO: answered only after the advance was processed, so
                // this wait hangs forever unless the engine survived.
                let default_ok = queue.submit(0).unwrap().wait();
                // A second advance must not re-panic (7 is quarantined).
                queue.advance(diffs[1].clone());
                let default_again = queue.submit(1).unwrap().wait();
                // No provider: the quarantined key now fails typed.
                let gone = queue.submit_for(7, 0).unwrap().wait();
                queue.close();
                (default_ok, default_again, gone)
            });
            engine.run(&queue, &config);
            let (default_ok, default_again, gone) = producer.join().unwrap();
            assert!(default_ok.is_ok(), "neighbour model keeps serving");
            assert!(default_again.is_ok(), "and keeps serving after advance 2");
            assert_eq!(gone.unwrap_err(), ServeError::UnknownModel(7));
        });
        let report = engine.report(Duration::from_millis(1));
        assert_eq!(report.panics, 1, "one quarantine, no repeat panic");
        assert_eq!(report.generation, 2, "both advances applied");
    }
}
