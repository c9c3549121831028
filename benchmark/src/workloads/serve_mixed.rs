//! `serve_mixed` — the full serving stack over loopback sockets, binary
//! protocol: reads beside writes on one engine.
//!
//! One driver thread, closed loop, two connections in lock-step rounds
//! (write `INFER` on both, read both); every 20th round is preceded by one
//! `INGEST` on connection A. `op_ms_p50` is the read path (today about the
//! engine's 2 ms `flush_interval`); `op_ms_tail` is the 5 % of rounds that
//! queue behind ingest + snapshot + the pinned recurrent step — so a gain
//! for one that costs the other shows inside one workload. The same GPMA
//! that `dtdg_train` walks back and forth is used here forward-only, in
//! small batches.

use crate::harness::{self, Args, Pass, Report, Window, DATASET_POOL, OUT_DIR};
use crate::stats::{self, Pct};
use crate::trace::Tracer;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::RecurrentCell;
use stgraph_datasets::{community_stream, SynthConfig, UpdateStream};
use stgraph_dyngraph::UpdateBatch;
use stgraph_net::{
    build_resident_cell, wire, AdmissionController, ModelMeta, ModelRegistry, NetConfig, NetServer,
    ServeContext, ServerHandle, TenantQuota,
};
use stgraph_serve::ingest::LiveGraph;
use stgraph_serve::{
    build_cell, save_checkpoint, EngineHost, InferenceEngine, ModelKey, ServeConfig, ServeReport,
};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::{mem, StateDict, Tape, Tensor};

const NODES: usize = 12_000;
const BASE_EDGES: usize = 125_000;
const FEATURES: usize = 8;
const HIDDEN: usize = 32;
const TENANT: &str = "t0";
const CONNECTIONS: usize = 2;
/// One `INGEST` precedes every this-many-th round.
const INGEST_EVERY: u64 = 20;
/// Insertions per ingest. About a tenth of them repeat an edge that is
/// already there, so deleting 0.9 earlier insertions per insertion keeps
/// the graph the same size however long the run is (658 + 592 = 1 250 edge
/// ops per ingest).
const INGEST_ADDS: usize = 658;
const DELETE_FRAC: f64 = 0.9;
/// Earlier insertions the churn stream can pick deletions from.
const RESERVOIR: usize = 1 << 16;
const ZIPF_EXPONENT: f64 = 1.1;
const WARMUP_ROUNDS: u64 = 200;
/// Every this-many-th payload is kept for the replay oracle.
const ORACLE_EVERY: u64 = 50;
/// Most generations the replay oracle walks. The chain has to be replayed
/// from generation 0 at about 30 ms a generation, so this bounds the
/// oracle's cost; a pass of the end-to-end run ends below it, so the whole
/// first pass is checked.
const ORACLE_GENERATIONS: u64 = 128;
const ADMIT_REPLAYS: usize = 20_000;

/// Seeded Zipf over `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(s);
                total
            })
            .collect();
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut ChaCha8Rng) -> u32 {
        let r = rng.gen_range(0.0f64..1.0);
        self.cdf.partition_point(|&c| c < r).min(self.cdf.len() - 1) as u32
    }
}

/// The seeded inputs every set-up starts from.
struct Inputs {
    seed: u64,
    checkpoint: PathBuf,
}

impl Inputs {
    fn base_edges(&self) -> Vec<(u32, u32)> {
        community_stream(&SynthConfig::new(NODES, BASE_EDGES, self.seed)).collect()
    }

    fn features(&self) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xfea7);
        Tensor::rand_uniform((NODES, FEATURES), -1.0, 1.0, &mut rng)
    }

    /// The churn stream; its insertion budget is never reached.
    fn updates(&self) -> UpdateStream {
        let cfg = SynthConfig::new(NODES, usize::MAX / 2, self.seed ^ 0x1263);
        UpdateStream::new(&cfg, DELETE_FRAC, RESERVOIR)
    }

    fn meta(&self) -> ModelMeta {
        ModelMeta {
            arch: "tgcn".into(),
            features: FEATURES,
            hidden: HIDDEN,
            init_seed: self.seed,
        }
    }

    /// Writes the seeded TGCN as `.stgc` — an input of the stack, made
    /// once, outside the timed set-ups (it ends in an `fsync`, whose cost
    /// belongs to the disk, not to the system under test).
    fn write_checkpoint(seed: u64) -> Inputs {
        std::fs::create_dir_all(OUT_DIR).expect("create the benchmark's output directory");
        let checkpoint =
            Path::new(OUT_DIR).join(format!("serve_mixed.{}.stgc", std::process::id()));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        build_cell("tgcn", &mut params, FEATURES, HIDDEN, &mut rng).expect("tgcn is in the zoo");
        save_checkpoint(&checkpoint, &params.to_state_dict()).expect("write the checkpoint");
        Inputs { seed, checkpoint }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    last_generation: u64,
}

/// One kept payload: what the socket said node `node` embeds to at
/// generation `generation`.
struct Sample {
    generation: u64,
    node: u32,
    values: Vec<f32>,
}

/// The running stack plus the driver's state.
struct Stack {
    conns: Vec<Conn>,
    handle: Option<ServerHandle>,
    host: Option<EngineHost>,
    ctx: Arc<ServeContext>,
    key: ModelKey,
    updates: UpdateStream,
    zipf: Zipf,
    rng: ChaCha8Rng,
    rounds: u64,
    ops: u64,
    ingests: u64,
    ingest_ack_ms: Vec<f64>,
    samples: Vec<Sample>,
    /// Protocol violations that are not an op's own failure.
    errors: Vec<String>,
}

impl Stack {
    /// One complete set-up: inputs → live graph → registry → engine thread
    /// → listeners → connections → first op.
    fn build(inputs: &Inputs, tracer: &Tracer) -> Stack {
        let edges = {
            let _sp = tracer.span("datasets.load");
            mem::with_pool(DATASET_POOL, || inputs.base_edges())
        };
        let registry = Arc::new(ModelRegistry::new(64 << 20));
        let key = {
            let _sp = tracer.span("serve.checkpoint_load");
            registry
                .publish(TENANT, inputs.meta(), &inputs.checkpoint)
                .expect("publish the tenant's checkpoint")
        };
        let provider_registry = Arc::clone(&registry);
        let features = inputs.features();
        let seed = inputs.seed;
        let host = EngineHost::spawn(ServeConfig::default(), move || {
            // The engine always carries a default model next to the tenants'.
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdef0);
            let mut params = ParamSet::new();
            let cell = build_cell("tgcn", &mut params, FEATURES, HIDDEN, &mut rng)
                .expect("tgcn is in the zoo");
            let live = LiveGraph::from_edges(NODES, &edges);
            let mut engine = InferenceEngine::new(cell, features, live, "seastar");
            engine.set_model_provider(Box::new(move |key| {
                provider_registry
                    .resident(key)
                    .ok()
                    .and_then(|m| build_resident_cell(&m))
            }));
            engine
        });
        let ctx = Arc::new(ServeContext {
            queue: Arc::clone(host.queue()),
            registry,
            admission: AdmissionController::new(TenantQuota {
                rate_per_s: 1_000_000,
                burst: 1_000_000,
                max_inflight: 64,
            }),
            num_nodes: NODES as u32,
        });
        let handle = NetServer::start(
            NetConfig {
                threads: CONNECTIONS,
                ..NetConfig::default()
            },
            Arc::clone(&ctx),
        )
        .expect("bind loopback listeners");
        let conns = (0..CONNECTIONS)
            .map(|_| {
                let s = TcpStream::connect(handle.bin_addr).expect("connect to the binary port");
                s.set_nodelay(true).expect("set TCP_NODELAY");
                s.set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("set the client read timeout");
                Conn {
                    reader: BufReader::new(s.try_clone().expect("clone the socket")),
                    writer: s,
                    last_generation: 0,
                }
            })
            .collect();
        let mut stack = Stack {
            conns,
            handle: Some(handle),
            host: Some(host),
            ctx,
            key,
            updates: inputs.updates(),
            zipf: Zipf::new(NODES, ZIPF_EXPONENT),
            rng: ChaCha8Rng::seed_from_u64(inputs.seed ^ 0x21bf),
            rounds: 0,
            ops: 0,
            ingests: 0,
            ingest_ack_ms: Vec::new(),
            samples: Vec::new(),
            errors: Vec::new(),
        };
        // First op: loads the tenant's model through the provider, builds
        // the first snapshot and runs the first recurrent step.
        let node = stack.zipf.sample(&mut stack.rng);
        let first = stack.infer_round_trip(0, node, tracer);
        assert!(first.1.is_ok(), "the set-up's first INFER failed");
        stack
    }

    fn send_infer(&mut self, conn: usize, node: u32, tracer: &Tracer) -> Instant {
        let start = Instant::now();
        let body = {
            let _sp = tracer.span("net.wire_codec");
            wire::encode_request(&wire::Request::Infer {
                tenant: TENANT.into(),
                node,
            })
        };
        // An I/O error surfaces as a failed read on the same connection.
        let _ = wire::write_frame(&mut self.conns[conn].writer, &body);
        start
    }

    /// Reads one `INFER` answer; `Ok` only for an OK status whose payload
    /// names the asked node and does not go back in generations.
    fn recv_infer(&mut self, conn: usize, node: u32, tracer: &Tracer) -> Result<u64, ()> {
        let body = wire::read_frame(&mut self.conns[conn].reader)
            .ok()
            .flatten()
            .ok_or(())?;
        let resp = {
            let _sp = tracer.span("net.wire_codec");
            wire::decode_response(&body)
        };
        let wire::Response::Ok(payload) = resp.map_err(|_| ())? else {
            return Err(());
        };
        let (got, generation, values) = wire::decode_infer_payload(&payload).ok_or(())?;
        let c = &mut self.conns[conn];
        if got != node || generation < c.last_generation || values.len() != HIDDEN {
            self.errors.push(format!(
                "connection {conn}: asked node {node}, got node {got} at generation {generation} (previous {}), width {}",
                c.last_generation,
                values.len()
            ));
            return Err(());
        }
        c.last_generation = generation;
        self.ops += 1;
        if self.ops.is_multiple_of(ORACLE_EVERY) && generation < ORACLE_GENERATIONS {
            self.samples.push(Sample {
                generation,
                node,
                values,
            });
        }
        Ok(1)
    }

    fn infer_round_trip(
        &mut self,
        conn: usize,
        node: u32,
        tracer: &Tracer,
    ) -> (f64, Result<u64, ()>) {
        let start = self.send_infer(conn, node, tracer);
        let out = self.recv_infer(conn, node, tracer);
        (start.elapsed().as_secs_f64() * 1e3, out)
    }

    /// One `INGEST` round trip on connection A. The ack means *enqueued*:
    /// the engine applies the batch before it answers the next `INFER`.
    fn ingest(&mut self) {
        let (additions, deletions) = self
            .updates
            .next_batch(INGEST_ADDS)
            .expect("the churn stream does not end");
        let body = wire::encode_request(&wire::Request::Ingest {
            tenant: TENANT.into(),
            additions,
            deletions,
        });
        let start = Instant::now();
        let ok = wire::write_frame(&mut self.conns[0].writer, &body).is_ok()
            && matches!(
                wire::read_frame(&mut self.conns[0].reader)
                    .ok()
                    .flatten()
                    .map(|b| wire::decode_response(&b)),
                Some(Ok(wire::Response::Ok(_)))
            );
        self.ingest_ack_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.ingests += 1;
        if !ok {
            self.errors
                .push(format!("INGEST {} was not acknowledged OK", self.ingests));
        }
    }

    /// One lock-step round: `INFER` written on every connection, then every
    /// answer read. Each `INFER` is one op.
    fn round(&mut self, tracer: &Tracer, window: &mut Window) {
        self.rounds += 1;
        if self.rounds.is_multiple_of(INGEST_EVERY) {
            self.ingest();
        }
        tracer.set_op(self.rounds);
        let mut sent = [(0u32, Instant::now()); CONNECTIONS];
        for (conn, slot) in sent.iter_mut().enumerate() {
            let node = self.zipf.sample(&mut self.rng);
            *slot = (node, self.send_infer(conn, node, tracer));
        }
        for (conn, (node, start)) in sent.into_iter().enumerate() {
            let out = self.recv_infer(conn, node, tracer);
            window.push(start.elapsed().as_secs_f64() * 1e3, out);
        }
    }

    /// Rounds back to back for `seconds`; a round is one step of the window.
    fn run_rounds(&mut self, seconds: f64, tracer: &Tracer) -> Window {
        harness::run_until(seconds, |window| self.round(tracer, window))
    }

    /// The same two-in-flight closed loop without the sockets: straight
    /// into `RequestQueue::submit_for → Ticket::wait`.
    fn run_in_process(&mut self, seconds: f64) -> Window {
        harness::run_until(seconds, |window| {
            let tickets: Vec<_> = (0..CONNECTIONS)
                .map(|_| {
                    let node = self.zipf.sample(&mut self.rng);
                    (Instant::now(), self.ctx.queue.submit_for(self.key, node))
                })
                .collect();
            for (t, ticket) in tickets {
                let out = ticket.and_then(|t| t.wait()).map(|_| 1).map_err(|_| ());
                window.push(t.elapsed().as_secs_f64() * 1e3, out);
            }
        })
    }

    /// Closes the connections, stops the listeners, drains the engine.
    fn stop(&mut self) -> Option<ServeReport> {
        self.conns.clear(); // handlers see EOF and return to accept()
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        self.host.take().map(EngineHost::shutdown)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// What the replay oracle saw.
struct Replay {
    errors: Vec<String>,
    checked: usize,
    /// Edge ops the twin applied.
    applied_edge_ops: usize,
    /// Live edges at the first and last replayed generation.
    edges: (usize, usize),
    /// The last generation replayed.
    last_generation: u64,
}

/// Direct replay `h_g = cell(x, A_g, h_{g-1})` on a twin live graph fed the
/// same batches: every kept payload must match it bit for bit. In the
/// traced run the twin's calls are the `serve.*` layer probes.
fn replay_oracle(inputs: &Inputs, stack: &Stack, tracer: &Tracer) -> Replay {
    let mut out = Replay {
        errors: Vec::new(),
        checked: 0,
        applied_edge_ops: 0,
        edges: (0, 0),
        last_generation: stack.ingests.min(ORACLE_GENERATIONS - 1),
    };
    let resident = stack
        .ctx
        .registry
        .resident(stack.key)
        .expect("the tenant's model is published");
    let cell = build_resident_cell(&resident).expect("checkpoint fits the declared shape");
    let features = inputs.features();
    let mut live = LiveGraph::from_edges(NODES, &inputs.base_edges());
    out.edges.0 = live.num_edges();
    let mut updates = inputs.updates();
    let mut hidden: Option<Tensor> = None;
    let last = out.last_generation;
    for g in 0..=last {
        let snap = {
            let _sp = tracer.span("serve.snapshot");
            live.snapshot().1
        };
        let exec = TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap));
        let tape = Tape::new();
        let x = tape.constant(features.clone());
        let h_prev = hidden.take().map(|t| tape.constant(t));
        let h = {
            let _sp = tracer.span("serve.step");
            cell.step(&tape, &exec, 0, &x, h_prev.as_ref())
        };
        let emb = h.value().clone();
        for s in stack.samples.iter().filter(|s| s.generation == g) {
            let row = &emb.data()[s.node as usize * HIDDEN..(s.node as usize + 1) * HIDDEN];
            out.checked += 1;
            if row
                .iter()
                .map(|v| v.to_bits())
                .ne(s.values.iter().map(|v| v.to_bits()))
            {
                out.errors.push(format!(
                    "serve_mixed oracle: node {} at generation {g} differs from the direct replay",
                    s.node
                ));
            }
        }
        hidden = Some(emb);
        if g < last {
            let (additions, deletions) = updates.next_batch(INGEST_ADDS).expect("endless stream");
            let batch = UpdateBatch {
                additions,
                deletions,
            };
            out.applied_edge_ops += batch.len();
            let _sp = tracer.span("serve.ingest_apply");
            live.apply(&batch);
        }
    }
    out.edges.1 = live.num_edges();
    if out.checked == 0 {
        out.errors
            .push("serve_mixed oracle: no payload was checked".into());
    }
    out
}

fn little_ratio(w: &Window) -> f64 {
    let throughput = w.ops.len() as f64 / w.wall_s;
    CONNECTIONS as f64 / throughput / (w.mean_ms() / 1e3)
}

/// `ServeReport` counters summed over the passes' engines.
#[derive(Default)]
struct EngineTotals {
    queries: u64,
    batches: u64,
    forwards: u64,
    shed: u64,
    expired: u64,
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let inputs = Inputs::write_checkpoint(args.seed);
    let passes = if args.trace { 1 } else { harness::PASSES };
    let mut report = Report {
        passes: Vec::new(),
        tail: Pct::P99,
        work_unit: "OK responses",
        layers: BTreeMap::new(),
        errors: Vec::new(),
        notes: Vec::new(),
    };
    let (mut rounds, mut ingests) = (0, 0);
    let mut engine = EngineTotals::default();
    for pass in 0..passes {
        tracer.set_enabled(args.trace);
        let t = Instant::now();
        let mut stack = Stack::build(&inputs, tracer);
        let setup_s = t.elapsed().as_secs_f64();
        tracer.set_enabled(false);
        let mut warmup = Window::default();
        for _ in 0..WARMUP_ROUNDS {
            stack.round(tracer, &mut warmup);
        }
        harness::reset_mem_peaks();
        let window = if args.trace {
            traced_window(args, tracer, &mut stack, &mut report.layers)
        } else {
            stack.run_rounds(args.seconds / passes as f64, tracer)
        };
        let peak_mem_bytes = harness::peak_mem_bytes();
        report.passes.push(Pass {
            setup_s,
            window,
            peak_mem_bytes,
        });

        if pass == 0 {
            tracer.set_enabled(args.trace);
            let replay = replay_oracle(&inputs, &stack, tracer);
            tracer.set_enabled(false);
            report.errors.extend(replay.errors);
            report.notes.push(format!(
                "oracle: {} payloads of the first pass bit-identical to the direct replay of generations 0..={} (the pass reached {}), live edges {} → {}",
                replay.checked, replay.last_generation, stack.ingests, replay.edges.0, replay.edges.1
            ));
            if args.trace {
                let mean = |name: &str| stats::mean(&tracer.durations_ms(name));
                let applies = tracer.durations_ms("serve.ingest_apply");
                let layers = &mut report.layers;
                layers.insert("serve.step_ms", mean("serve.step"));
                layers.insert("serve.ingest_apply_ms", stats::mean(&applies));
                layers.insert("serve.snapshot_ms", mean("serve.snapshot"));
                layers.insert(
                    "serve.ingest_edges_per_s",
                    replay.applied_edge_ops as f64 / (applies.iter().sum::<f64>() / 1e3),
                );
                layers.insert("net.ingest_ack_ms", stats::mean(&stack.ingest_ack_ms));
            }
        }
        rounds += stack.rounds;
        ingests += stack.ingests;
        report.errors.append(&mut stack.errors);
        let serve = stack.stop().expect("the engine was running");
        if serve.shed + serve.expired + serve.panics > 0 {
            report.errors.push(format!(
                "engine shed {} / expired {} / panicked {}",
                serve.shed, serve.expired, serve.panics
            ));
        }
        engine.queries += serve.queries;
        engine.batches += serve.batches;
        engine.forwards += serve.forwards;
        engine.shed += serve.shed;
        engine.expired += serve.expired;
    }
    let _ = std::fs::remove_file(&inputs.checkpoint);

    // Little's law holds for time as it passed, so it is checked on the
    // literal windows of all passes, not on the metrics' per-op fastest.
    let ratio = little_ratio(&report.pooled());
    if !(0.9..=1.1).contains(&ratio) {
        report.errors.push(format!(
            "bench.little_ratio {ratio:.4} outside 0.9–1.1: {CONNECTIONS} in flight / throughput does not match the mean latency"
        ));
    }
    if args.trace {
        let median = |name: &str| stats::median(&tracer.durations_ms(name)).unwrap_or(0.0);
        let layers = &mut report.layers;
        layers.insert(
            "serve.mean_batch_size",
            engine.queries as f64 / engine.batches.max(1) as f64,
        );
        layers.insert("serve.batches", engine.batches as f64);
        layers.insert("serve.forwards", engine.forwards as f64);
        layers.insert("serve.shed", engine.shed as f64);
        layers.insert("serve.expired", engine.expired as f64);
        layers.insert("serve.checkpoint_load_ms", median("serve.checkpoint_load"));
        layers.insert("datasets.load_ms", median("datasets.load"));
        layers.insert("bench.little_ratio", ratio);
        layers.insert("bench.rss_peak_mb", harness::rss_peak_mb());
    }
    report.notes.insert(
        0,
        format!(
            "community stream: {NODES} nodes, {BASE_EDGES} base edge events; TGCN F {FEATURES} hidden {HIDDEN}; {CONNECTIONS} connections closed loop, Zipf({ZIPF_EXPONENT}) nodes; INGEST of {INGEST_ADDS} insertions + {:.0} deletions before every {INGEST_EVERY}th round; {WARMUP_ROUNDS} warm-up rounds per pass; {rounds} rounds, {ingests} ingests in all; engines: {} queries in {} batches, {} forwards",
            INGEST_ADDS as f64 * DELETE_FRAC,
            engine.queries,
            engine.batches,
            engine.forwards
        ),
    );
    report
}

/// The traced run's window: a quarter of the time untraced (the overhead
/// baseline), half of it traced, an eighth without the sockets. Fills the
/// `net.*` layers that come from comparing the three.
fn traced_window(
    args: &Args,
    tracer: &Tracer,
    stack: &mut Stack,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Window {
    let plain = stack.run_rounds(args.seconds / 4.0, tracer);
    harness::reset_mem_peaks();
    tracer.set_enabled(true);
    let traced = stack.run_rounds(args.seconds / 2.0, tracer);
    tracer.set_op(crate::trace::NO_OP);
    tracer.set_enabled(false);
    let in_process = stack.run_in_process(args.seconds / 8.0);
    layers.insert("serve.submit_wait_ms_p50", in_process.p50());
    layers.insert("net.overhead_us", (traced.p50() - in_process.p50()) * 1e3);
    layers.insert("bench.trace_overhead_ratio", traced.p50() / plain.p50());
    let codec = tracer.durations_ms("net.wire_codec");
    // One op is one encode plus one decode.
    layers.insert(
        "net.wire_codec_us",
        codec.iter().sum::<f64>() * 1e3 / traced.attempted.max(1) as f64,
    );
    let t = Instant::now();
    for _ in 0..ADMIT_REPLAYS {
        drop(std::hint::black_box(stack.ctx.admission.admit(TENANT)));
    }
    layers.insert(
        "net.admit_us",
        t.elapsed().as_secs_f64() * 1e6 / ADMIT_REPLAYS as f64,
    );
    if in_process.failed > 0 {
        stack
            .errors
            .push(format!("{} in-process queries failed", in_process.failed));
    }
    traced
}
