//! `loadgen` — closed-loop load generator for the net tier, over real
//! sockets.
//!
//! Workers each hold a persistent connection and issue the next request
//! only after the previous answer lands (closed loop, so measured latency
//! includes every queueing stage). Tenants are picked from a Zipfian
//! distribution — a few hot tenants, a long cold tail, the shape that
//! actually stresses a multi-tenant LRU — and a configurable fraction of
//! requests are ingest updates that advance the shared live graph.
//!
//! Output is one machine-parseable `key=value` line per tenant plus a
//! `total:` line; `--json <path>` additionally writes the summary as JSON
//! (the CI smoke job consumes these).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stgraph_datasets::cli::{self, get};
use stgraph_net::{http, wire};
use stgraph_serve::LatencyRecorder;

const HELP: &str = "stgraph loadgen — closed-loop Zipfian load for the net tier

Options:
  --http <host:port>      HTTP address of a running net server
  --bin <host:port>       binary-protocol address
  --proto <http|bin|both> protocol to drive; both needs both addresses and
                          splits workers evenly (default: http if --http
                          was given, else bin)
  --requests <n>          total requests across all workers (default 1000)
  --tenants <n>           tenant universe t0..t{n-1} (default 4)
  --workers <n>           concurrent closed-loop workers (default 4)
  --zipf-s <f>            Zipf exponent over tenants; 0 = uniform (default 1.1)
  --update-frac <f>       fraction of requests that are ingest updates
                          (default 0.05)
  --edges-per-update <n>  edges per ingest batch (default 4)
  --nodes <n>             node-id bound; read it from the server's
                          'listening ... nodes=<n>' line (default 64)
  --seed <n>              RNG seed (default 7)
  --json <path>           also write the summary as JSON
  --help                  this text";

/// Zipfian sampler over `n` ranks: weight of rank `i` is `(i+1)^-s`.
/// Precomputed CDF + binary search (the vendored `rand` has no Zipf).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let r = rng.gen_range(0.0f64..1.0);
        self.cdf.partition_point(|&c| c < r).min(self.cdf.len() - 1)
    }
}

/// What one request came back as.
enum Outcome {
    Ok(Duration),
    Rejected(u16),
    /// Unparseable or out-of-contract response — the count that must be
    /// zero in CI.
    ProtocolError,
    /// Connection-level failure; the worker reconnects.
    ConnError,
}

#[derive(Default)]
struct TenantStats {
    requests: u64,
    ok: u64,
    r429: u64,
    r503: u64,
    r504: u64,
    other_rejected: u64,
    protocol_errors: u64,
    conn_errors: u64,
    ingests: u64,
    latencies: Vec<Duration>,
}

impl TenantStats {
    fn absorb(&mut self, other: TenantStats) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.r429 += other.r429;
        self.r503 += other.r503;
        self.r504 += other.r504;
        self.other_rejected += other.other_rejected;
        self.protocol_errors += other.protocol_errors;
        self.conn_errors += other.conn_errors;
        self.ingests += other.ingests;
        self.latencies.extend(other.latencies);
    }
}

enum Proto {
    Http,
    Bin,
}

/// One worker's connection, re-established on failure.
struct Conn {
    addr: String,
    proto: Proto,
    stream: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Conn {
    fn new(addr: String, proto: Proto) -> Conn {
        Conn {
            addr,
            proto,
            stream: None,
        }
    }

    fn ensure(&mut self) -> std::io::Result<&mut (BufReader<TcpStream>, TcpStream)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            s.set_nodelay(true)?;
            let reader = BufReader::new(s.try_clone()?);
            self.stream = Some((reader, s));
        }
        Ok(self.stream.as_mut().unwrap())
    }

    fn infer(&mut self, tenant: &str, node: u32) -> Outcome {
        let start = Instant::now();
        match &self.proto {
            Proto::Http => {
                let target = format!("/infer?tenant={tenant}&node={node}");
                let resp = self.ensure().and_then(|(r, w)| {
                    http::write_request(w, "GET", &target, b"")?;
                    http::read_response(r)
                });
                match resp {
                    Ok((200, _, body)) => match wire::decode_infer_payload(&body) {
                        Some((n, _, _)) if n == node => Outcome::Ok(start.elapsed()),
                        _ => Outcome::ProtocolError,
                    },
                    Ok((status, _, _)) => Outcome::Rejected(status),
                    Err(_) => {
                        self.stream = None;
                        Outcome::ConnError
                    }
                }
            }
            Proto::Bin => {
                let req = wire::Request::Infer {
                    tenant: tenant.to_string(),
                    node,
                };
                match self.roundtrip(&req) {
                    Ok(wire::Response::Ok(payload)) => match wire::decode_infer_payload(&payload) {
                        Some((n, _, _)) if n == node => Outcome::Ok(start.elapsed()),
                        _ => Outcome::ProtocolError,
                    },
                    Ok(wire::Response::Err { code, .. }) => Outcome::Rejected(wire_to_http(code)),
                    Err(_) => {
                        self.stream = None;
                        Outcome::ConnError
                    }
                }
            }
        }
    }

    fn ingest(&mut self, tenant: &str, edges: &[(u32, u32)]) -> Outcome {
        let start = Instant::now();
        match &self.proto {
            Proto::Http => {
                let mut body = String::new();
                for (s, d) in edges {
                    body.push_str(&format!("+ {s} {d}\n"));
                }
                let target = format!("/ingest?tenant={tenant}");
                let resp = self.ensure().and_then(|(r, w)| {
                    http::write_request(w, "POST", &target, body.as_bytes())?;
                    http::read_response(r)
                });
                match resp {
                    Ok((200, _, _)) => Outcome::Ok(start.elapsed()),
                    Ok((status, _, _)) => Outcome::Rejected(status),
                    Err(_) => {
                        self.stream = None;
                        Outcome::ConnError
                    }
                }
            }
            Proto::Bin => {
                let req = wire::Request::Ingest {
                    tenant: tenant.to_string(),
                    additions: edges.to_vec(),
                    deletions: Vec::new(),
                };
                match self.roundtrip(&req) {
                    Ok(wire::Response::Ok(_)) => Outcome::Ok(start.elapsed()),
                    Ok(wire::Response::Err { code, .. }) => Outcome::Rejected(wire_to_http(code)),
                    Err(_) => {
                        self.stream = None;
                        Outcome::ConnError
                    }
                }
            }
        }
    }

    fn roundtrip(&mut self, req: &wire::Request) -> std::io::Result<wire::Response> {
        let (r, w) = self.ensure()?;
        wire::write_frame(w, &wire::encode_request(req))?;
        let body = wire::read_frame(r)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed")
        })?;
        wire::decode_response(&body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Maps a wire status byte onto the HTTP status the classification below
/// keys on — the two protocols' rejections land in the same buckets.
fn wire_to_http(code: u8) -> u16 {
    match code {
        wire::status::BAD_REQUEST => 400,
        wire::status::UNKNOWN_TENANT => 404,
        wire::status::RATE_LIMITED => 429,
        wire::status::OVERLOADED | wire::status::SHUTTING_DOWN => 503,
        wire::status::DEADLINE => 504,
        _ => 500,
    }
}

#[allow(clippy::too_many_arguments)]
fn worker(
    id: usize,
    addr: String,
    proto: Proto,
    issued: &AtomicU64,
    requests: u64,
    zipf: &Zipf,
    nodes: u32,
    update_frac: f64,
    edges_per_update: usize,
    seed: u64,
) -> HashMap<usize, TenantStats> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9e37_79b9));
    let mut conn = Conn::new(addr, proto);
    let mut stats: HashMap<usize, TenantStats> = HashMap::new();
    loop {
        if issued.fetch_add(1, Ordering::Relaxed) >= requests {
            break;
        }
        let tenant_idx = zipf.sample(&mut rng);
        let tenant = format!("t{tenant_idx}");
        let is_update = rng.gen_bool(update_frac);
        let outcome = if is_update {
            let edges: Vec<(u32, u32)> = (0..edges_per_update)
                .map(|_| (rng.gen_range(0..nodes), rng.gen_range(0..nodes)))
                .collect();
            conn.ingest(&tenant, &edges)
        } else {
            conn.infer(&tenant, rng.gen_range(0..nodes))
        };
        let st = stats.entry(tenant_idx).or_default();
        st.requests += 1;
        if is_update {
            st.ingests += 1;
        }
        match outcome {
            Outcome::Ok(lat) => {
                st.ok += 1;
                st.latencies.push(lat);
                stgraph_telemetry::histogram_labeled("loadgen.latency_ns", &[("tenant", &tenant)])
                    .record(lat.as_nanos() as u64);
            }
            Outcome::Rejected(429) => {
                st.r429 += 1;
                // Over-quota: back off a moment instead of hot-spinning the
                // admission gate.
                std::thread::sleep(Duration::from_millis(2));
            }
            Outcome::Rejected(503) => st.r503 += 1,
            Outcome::Rejected(504) => st.r504 += 1,
            Outcome::Rejected(_) => st.other_rejected += 1,
            Outcome::ProtocolError => st.protocol_errors += 1,
            Outcome::ConnError => {
                st.conn_errors += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    stats
}

fn main() {
    let args = cli::parse_or_exit(HELP);
    let http_addr = args.get("http").cloned();
    let bin_addr = args.get("bin").cloned();
    let proto = args
        .get("proto")
        .map(String::as_str)
        .unwrap_or(if http_addr.is_some() { "http" } else { "bin" })
        .to_string();
    let requests = get(&args, "requests", 1000u64);
    let tenants = get(&args, "tenants", 4usize).max(1);
    let workers = get(&args, "workers", 4usize).max(1);
    let zipf_s = get(&args, "zipf_s", 1.1f64);
    let update_frac = get(&args, "update_frac", 0.05f64).clamp(0.0, 1.0);
    let edges_per_update = get(&args, "edges_per_update", 4usize).max(1);
    let nodes = get(&args, "nodes", 64u32).max(1);
    let seed = get(&args, "seed", 7u64);
    let json_path = args.get("json").cloned();

    let pick_addr = |want: &str| -> String {
        let addr = match want {
            "http" => http_addr.clone(),
            _ => bin_addr.clone(),
        };
        addr.unwrap_or_else(|| {
            eprintln!("--proto {proto} needs --{want} <host:port>");
            std::process::exit(2);
        })
    };

    let zipf = Zipf::new(tenants, zipf_s);
    let issued = AtomicU64::new(0);
    let merged: Mutex<HashMap<usize, TenantStats>> = Mutex::new(HashMap::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (addr, p) = match proto.as_str() {
                "http" => (pick_addr("http"), Proto::Http),
                "bin" => (pick_addr("bin"), Proto::Bin),
                "both" => {
                    if w % 2 == 0 {
                        (pick_addr("http"), Proto::Http)
                    } else {
                        (pick_addr("bin"), Proto::Bin)
                    }
                }
                other => {
                    eprintln!("unknown --proto '{other}' (http|bin|both)");
                    std::process::exit(2);
                }
            };
            let issued = &issued;
            let zipf = &zipf;
            let merged = &merged;
            scope.spawn(move || {
                let local = worker(
                    w,
                    addr,
                    p,
                    issued,
                    requests,
                    zipf,
                    nodes,
                    update_frac,
                    edges_per_update,
                    seed,
                );
                let mut all = merged.lock().unwrap();
                for (tenant, st) in local {
                    all.entry(tenant).or_default().absorb(st);
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let all = merged.into_inner().unwrap();

    let mut totals = TenantStats::default();
    let mut json_tenants = Vec::new();
    let mut idxs: Vec<usize> = all.keys().copied().collect();
    idxs.sort_unstable();
    for idx in idxs {
        let st = &all[&idx];
        let mut rec = LatencyRecorder::new();
        for &d in &st.latencies {
            rec.record(d);
        }
        let (p50, p95, p99) = (
            rec.p50().as_micros(),
            rec.p95().as_micros(),
            rec.p99().as_micros(),
        );
        println!(
            "tenant t{idx}: requests={} ok={} ingests={} r429={} r503={} r504={} \
             protocol_errors={} conn_errors={} p50_us={p50} p95_us={p95} p99_us={p99}",
            st.requests,
            st.ok,
            st.ingests,
            st.r429,
            st.r503,
            st.r504,
            st.protocol_errors,
            st.conn_errors
        );
        json_tenants.push(format!(
            "{{\"tenant\":\"t{idx}\",\"requests\":{},\"ok\":{},\"r429\":{},\"r503\":{},\
             \"r504\":{},\"protocol_errors\":{},\"p50_us\":{p50},\"p95_us\":{p95},\
             \"p99_us\":{p99}}}",
            st.requests, st.ok, st.r429, st.r503, st.r504, st.protocol_errors
        ));
        totals.requests += st.requests;
        totals.ok += st.ok;
        totals.r429 += st.r429;
        totals.r503 += st.r503;
        totals.r504 += st.r504;
        totals.other_rejected += st.other_rejected;
        totals.protocol_errors += st.protocol_errors;
        totals.conn_errors += st.conn_errors;
        totals.ingests += st.ingests;
    }
    let throughput = totals.ok as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "total: requests={} ok={} r429={} r503={} r504={} protocol_errors={} conn_errors={} \
         elapsed_s={:.3} throughput_rps={throughput:.1}",
        totals.requests,
        totals.ok,
        totals.r429,
        totals.r503,
        totals.r504,
        totals.protocol_errors,
        totals.conn_errors,
        elapsed.as_secs_f64()
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\"requests\":{},\"ok\":{},\"r429\":{},\"r503\":{},\"r504\":{},\
             \"protocol_errors\":{},\"conn_errors\":{},\"elapsed_s\":{:.3},\
             \"throughput_rps\":{throughput:.1},\"tenants\":[{}]}}\n",
            totals.requests,
            totals.ok,
            totals.r429,
            totals.r503,
            totals.r504,
            totals.protocol_errors,
            totals.conn_errors,
            elapsed.as_secs_f64(),
            json_tenants.join(",")
        );
        std::fs::write(&path, json).expect("write --json file");
        eprintln!("wrote {path}");
    }

    if totals.protocol_errors > 0 {
        std::process::exit(1);
    }
}
