//! The `serve-mixed` workload: an in-process `memx-serve` daemon under a
//! closed loop of client threads.
//!
//! The daemon listens on `127.0.0.1:0` with 2 handlers and an engine
//! worker budget of 2. Each of the 2 clients sends its next request only
//! after the previous one finished, one connection per request. A request
//! is a 3-point batch (the spec's budget, a tightened budget, 2 on-chip
//! memories) over the `spec_text` of a corpus entry or of a `specgen` spec
//! drawn from the seed. Within a client, every second request repeats a
//! spec that client already sent; the others are new.
//!
//! The timed loop runs an uncached daemon: with a disk cache, the entry
//! files each run writes and deletes slowed the next runs on the host's
//! disk and made them bimodal (see `perfbench/README.md`). A traced run
//! sends each client's leading requests again to a daemon with a fresh
//! cache. There the repeats are cache reads and the new specs are SCBD,
//! allocation and cache writes. The clients' spec sets are disjoint and
//! each request asks for one worker, so that daemon's cache counters are
//! exact: hits + misses equal the lookups the requests make, and every
//! miss leaves one entry file.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;
use std::io::{BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use memx_core::cache::{CacheKey, EvalCache};
use memx_core::engine::{auto_workers, Engine};
use memx_core::{alloc, scbd};
use memx_ir::{parse_spec, print_spec, specgen, AppSpec};
use memx_memlib::MemLibrary;
use memx_serve::client;
use memx_serve::http::{self, ReadLimits};
use memx_serve::json::{self, Json};
use memx_serve::server::{ServeConfig, Server};
use memx_serve::wire::{self, WireLimits};

use crate::stages::{self, evaluate_staged};
use crate::stats::{self, Tally};
use crate::trace::Trace;
use crate::{out_dir, Args, Outcome, SETUP_REPS};

pub const CLIENTS: usize = 2;
const HANDLERS: usize = 2;
const ENGINE_WORKERS: usize = 2;
/// Design points per request.
const POINTS: usize = 3;
/// Leading requests per client left out of the latency statistics.
const WARMUP: usize = 50;
/// Requests generated per client per second of run: above the closed
/// loop's rate on a 2-core host, so a run never exhausts its stream.
const STREAM_RATE: usize = 4000;
/// Leading requests per client that a traced run sends to a cached daemon
/// and replays stage by stage.
const SAMPLE: usize = 300;

/// SplitMix64: the repeat choices of a client's stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The 3-point `POST /v1/evaluate` body for one spec. Every request asks
/// for one worker, so its points run in order and cache counts are exact.
pub fn request_body(text: &str, spec: &AppSpec) -> String {
    let budget = spec.cycle_budget();
    let tight = spec.min_cycles().max(budget - budget / 4);
    let point = |label: &str, knob: Option<(&str, Json)>| {
        let mut members = vec![("label".to_string(), Json::Str(label.to_string()))];
        members.extend(knob.map(|(k, v)| (k.to_string(), v)));
        Json::Obj(members)
    };
    let two_memories = Json::Obj(vec![("on_chip_memories".to_string(), Json::Num(2.0))]);
    Json::Obj(vec![
        ("spec_text".to_string(), Json::Str(text.to_string())),
        (
            "points".to_string(),
            Json::Arr(vec![
                point("default budget", None),
                point(
                    "tight budget",
                    Some(("cycle_budget", Json::Num(tight as f64))),
                ),
                point("2 on-chip memories", Some(("alloc", two_memories))),
            ]),
        ),
        ("workers".to_string(), Json::Num(1.0)),
    ])
    .encode()
}

/// Where a request body's spec comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// An entry of the corpus.
    Corpus(usize),
    /// `specgen::generate(seed, index)`.
    Generated(u64),
}

/// One client's requests: the specs it sends in first-use order, and the
/// spec each request sends. Bodies are built when needed (about 20 µs
/// each), so a long run holds no pre-built stream in memory.
#[derive(Debug)]
pub struct ClientStream<'c> {
    seed: u64,
    corpus: &'c [String],
    sources: Vec<Source>,
    pub order: Vec<usize>,
}

impl ClientStream<'_> {
    /// The request body of the client's `i`-th distinct spec.
    pub fn body(&self, i: usize) -> Result<String, String> {
        let (text, spec) = match self.sources[i] {
            Source::Corpus(c) => {
                let text = &self.corpus[c];
                let spec = parse_spec(text).map_err(|e| format!("corpus entry {c}: {e}"))?;
                (text.clone(), spec)
            }
            Source::Generated(index) => {
                let seed = self.seed;
                let spec = specgen::generate(seed, index)
                    .map_err(|e| format!("specgen {seed}/{index}: {e}"))?;
                (print_spec(&spec), spec)
            }
        };
        Ok(request_body(&text, &spec))
    }

    /// Requests among the first `sent` that send spec `i`.
    fn sends(&self, i: usize, sent: usize) -> u64 {
        self.order[..sent].iter().filter(|&&b| b == i).count() as u64
    }
}

/// The stream of client `client`: even requests send a new spec (first
/// the client's share of `corpus`, then `specgen` specs of `seed` with
/// indices `client`, `client + CLIENTS`, ...), odd requests repeat one of
/// the client's earlier specs, chosen by a seeded generator.
pub fn client_stream(
    seed: u64,
    client: usize,
    corpus: &[String],
    requests: usize,
) -> ClientStream<'_> {
    let mut rng = SplitMix(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut own_corpus = (client..corpus.len()).step_by(CLIENTS);
    let mut generated = 0u64;
    let mut stream = ClientStream {
        seed,
        corpus,
        sources: Vec::new(),
        order: Vec::with_capacity(requests),
    };
    for k in 0..requests {
        let spec = if k % 2 == 1 {
            (rng.next() % stream.sources.len() as u64) as usize
        } else {
            stream.sources.push(match own_corpus.next() {
                Some(c) => Source::Corpus(c),
                None => {
                    generated += 1;
                    Source::Generated((generated - 1) * CLIENTS as u64 + client as u64)
                }
            });
            stream.sources.len() - 1
        };
        stream.order.push(spec);
    }
    stream
}

/// A fingerprint of a response's rows; equal rows, equal fingerprints.
fn rows_hash<'r>(rows: impl IntoIterator<Item = &'r [u8]>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for row in rows {
        h.write(row);
        h.write_u8(0xff);
    }
    h.finish()
}

/// Binds a daemon (with a fresh cache at `cache_dir`, if given), starts
/// it and waits for its first answer; returns its address.
/// `Server::run` serves until the process exits, so its thread is never
/// joined.
fn boot(cache_dir: Option<&Path>, tr: &mut Trace) -> Result<SocketAddr, String> {
    tr.span("serve.setup", |tr| {
        let cache = match cache_dir {
            Some(dir) => Some(Arc::new(
                tr.span("cache.open", |_| EvalCache::open(dir))
                    .map_err(|e| e.to_string())?,
            )),
            None => None,
        };
        let config = ServeConfig {
            handlers: HANDLERS,
            engine_workers: ENGINE_WORKERS,
            cache,
            ..ServeConfig::default()
        };
        let server = tr
            .span("serve.bind", |_| {
                Server::bind(MemLibrary::default_07um(), config)
            })
            .map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        std::thread::spawn(move || server.run());
        match tr.span("serve.boot", |_| client::get(addr, "/v1/stats")) {
            Ok(r) if r.status == 200 => Ok(addr),
            Ok(r) => Err(format!("daemon answered {} to its first request", r.status)),
            Err(e) => Err(format!("daemon did not answer: {e}")),
        }
    })
}

/// One client's side of a closed loop.
#[derive(Debug, Default)]
struct ClientRun {
    /// Seconds per request after the warm-up; infinite for a failed one.
    latencies: Vec<f64>,
    /// Requests sent: a prefix of the stream's `order`.
    sent: usize,
    /// A fingerprint of the rows first served for each spec; later
    /// answers must repeat them.
    first_rows: BTreeMap<usize, u64>,
    tally: Tally,
}

/// POSTs `body` on a connection of its own, which is closed with a reset
/// rather than the usual handshake once the answer is read. A run makes
/// tens of thousands of connections; closed normally, each would linger
/// in TIME_WAIT for a minute, and that many slow every later connect on
/// the host, the next runs' included.
fn post(addr: SocketAddr, body: &str) -> Result<client::Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    reset_on_close(&stream).map_err(|e| e.to_string())?;
    stream
        .write_all(request_bytes(body).as_bytes())
        .map_err(|e| e.to_string())?;
    client::read_response(&mut BufReader::new(stream)).map_err(|e| e.to_string())
}

/// `SO_LINGER` with a zero timeout: `close` sends RST and frees the
/// socket at once. The standard library offers this only on nightly.
#[cfg(target_os = "linux")]
fn reset_on_close(stream: &TcpStream) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: `stream` owns the descriptor for the whole call, and
    // `linger` is a live `struct linger` whose exact size is passed.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn reset_on_close(_: &TcpStream) -> std::io::Result<()> {
    Ok(())
}

fn drive(
    addr: SocketAddr,
    stream: &ClientStream,
    limit: usize,
    deadline: Instant,
    tr: &mut Trace,
) -> ClientRun {
    let mut run = ClientRun::default();
    for (k, &spec) in stream.order.iter().take(limit).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let body = stream.body(spec);
        let t = Instant::now();
        let response = body.and_then(|body| tr.span("serve.request", |_| post(addr, &body)));
        let latency = t.elapsed().as_secs_f64();
        let ok = match response {
            Ok(r) if r.status == 200 && r.rows.len() == POINTS => {
                let hash = rows_hash(r.rows.iter().map(Vec::as_slice));
                *run.first_rows.entry(spec).or_insert(hash) == hash
            }
            _ => false,
        };
        run.tally.record(ok);
        if k >= WARMUP {
            run.latencies.push(if ok { latency } else { f64::INFINITY });
        }
        run.sent = k + 1;
    }
    run
}

struct Loop {
    clients: Vec<ClientRun>,
    wall_s: f64,
}

impl Loop {
    fn latencies(&self) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.latencies.iter().copied())
            .collect()
    }

    fn sent(&self) -> usize {
        self.clients.iter().map(|c| c.sent).sum()
    }
}

/// Runs every client against the daemon at `addr` until `seconds` have
/// passed or it has sent `limit` requests.
fn closed_loop(
    addr: SocketAddr,
    streams: &[ClientStream],
    seconds: f64,
    limit: usize,
    tr: &mut Trace,
) -> Loop {
    let on = tr.is_on();
    let origin = tr.origin();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut client_trace = Trace::with_origin(on, origin);
                    let run = drive(addr, stream, limit, deadline, &mut client_trace);
                    (run, client_trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut clients = Vec::with_capacity(runs.len());
    for (run, client_trace) in runs {
        tr.absorb(client_trace);
        clients.push(run);
    }
    Loop { clients, wall_s }
}

/// Cache counters, per entry kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub scbd: (u64, u64),
    pub alloc: (u64, u64),
    pub blocks: (u64, u64),
    pub write_failures: u64,
}

/// The daemon's `GET /v1/stats` totals.
#[derive(Debug, Default)]
struct Served {
    requests: u64,
    rows: u64,
    rejected: u64,
    cache: Counts,
}

fn served_stats(addr: SocketAddr) -> Result<Served, String> {
    let response = client::get(addr, "/v1/stats").map_err(|e| e.to_string())?;
    let body = json::parse(&response.body).map_err(|e| e.to_string())?;
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&body, |j, key| j.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("/v1/stats lacks {}", path.join(".")))
    };
    let kind = |k: &str| -> Result<(u64, u64), String> {
        Ok((num(&["cache", k, "hits"])?, num(&["cache", k, "misses"])?))
    };
    let failures = ["scbd", "alloc", "blocks"]
        .iter()
        .map(|k| num(&["cache", k, "write_failures"]))
        .sum::<Result<u64, String>>()?;
    Ok(Served {
        requests: num(&["requests"])?,
        rows: num(&["rows_streamed"])?,
        rejected: num(&["rejected_requests"])?,
        cache: Counts {
            scbd: kind("scbd")?,
            alloc: kind("alloc")?,
            blocks: kind("blocks")?,
            write_failures: failures,
        },
    })
}

/// The cache lookups one request for a body makes: a SCBD lookup per
/// distinct budget that can be scheduled, an allocation lookup per row
/// that succeeds (failed evaluations are never cached or counted).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Lookups {
    pub scbd: u64,
    pub alloc: u64,
}

/// The offline reference for `body`: `wire::offline_rows`, and the
/// cache lookups each request for it makes.
pub fn reference(body: &str) -> Result<(Vec<String>, Lookups), String> {
    let rows = wire::offline_rows(body.as_bytes(), WireLimits::default())?;
    let parsed = json::parse(body.as_bytes()).map_err(|e| e.to_string())?;
    let request =
        wire::decode_evaluate(&parsed, WireLimits::default()).map_err(|e| e.to_string())?;
    let budgets: BTreeSet<u64> = request
        .points
        .iter()
        .map(|(_, o)| {
            o.cycle_budget
                .unwrap_or_else(|| request.spec.cycle_budget())
        })
        .collect();
    let scbd = budgets
        .into_iter()
        .filter(|&b| scbd::distribute_with_budget(&request.spec, b).is_ok())
        .count();
    let alloc = rows
        .iter()
        .filter(|row| json::parse(row.trim_end().as_bytes()).is_ok_and(|r| r.get("ok").is_some()))
        .count();
    Ok((
        rows,
        Lookups {
            scbd: scbd as u64,
            alloc: alloc as u64,
        },
    ))
}

/// Entry files per kind in a cache directory: every miss stores one.
fn entry_files(dir: &Path) -> [u64; 3] {
    ["scbd", "alloc", "offblocks"].map(|kind| {
        std::fs::read_dir(dir.join(kind)).map_or(0, |entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".bin"))
                .count() as u64
        })
    })
}

/// The cache counters `served` must show after the requests of `lp`:
/// hits + misses equal to the lookups each request makes, and one entry
/// file on disk per miss.
fn counts_agree(served: &Counts, lookups: Lookups, files: [u64; 3]) -> bool {
    served.scbd.0 + served.scbd.1 == lookups.scbd
        && served.alloc.0 + served.alloc.1 == lookups.alloc
        && [served.scbd.1, served.alloc.1, served.blocks.1] == files
        && served.write_failures == 0
}

/// Checks one loop: every distinct body's served rows against
/// `wire::offline_rows` (a wrong first answer fails every request that
/// sent the body), the daemon's request totals, and for a cached daemon
/// its cache counters against the lookups the requests make and the
/// entries its cache holds.
fn verify(
    streams: &[ClientStream],
    lp: &mut Loop,
    served: &Served,
    cache_dir: Option<&Path>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let checked = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(&lp.clients)
            .map(|(stream, client)| {
                scope.spawn(move || {
                    let mut lookups = Lookups::default();
                    let mut wrong = Vec::new();
                    for (&spec, &served) in &client.first_rows {
                        let (reference, per_request) = reference(&stream.body(spec)?)?;
                        let sends = stream.sends(spec, client.sent);
                        lookups.scbd += sends * per_request.scbd;
                        lookups.alloc += sends * per_request.alloc;
                        if rows_hash(reference.iter().map(|r| r.as_bytes())) != served {
                            wrong.push(sends);
                        }
                    }
                    Ok::<_, String>((lookups, wrong))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a verification thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut lookups = Lookups::default();
    for (client, (client_lookups, wrong)) in lp.clients.iter_mut().zip(checked) {
        lookups.scbd += client_lookups.scbd;
        lookups.alloc += client_lookups.alloc;
        for sends in wrong {
            client.tally.fail_recorded(sends);
        }
        outcome.tally.merge(client.tally);
    }
    let requests = lp.sent() as u64;
    outcome.check(
        "daemon counted every request, none refused",
        served.requests == requests
            && served.rows == requests * POINTS as u64
            && served.rejected == 0,
    );
    if let Some(dir) = cache_dir {
        outcome.check(
            "cache counters match the lookups made and the entries stored",
            counts_agree(&served.cache, lookups, entry_files(dir)),
        );
    }
    Ok(())
}

/// The bytes of one `POST /v1/evaluate` request, as `client::post_evaluate`
/// frames it.
fn request_bytes(body: &str) -> String {
    format!(
        "POST /v1/evaluate HTTP/1.1\r\nhost: memx-serve\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Replays requests stage by stage: HTTP framing, JSON, `parse_spec`,
/// wire decoding, SCBD, allocation, row rendering, and the cache's loads
/// and stores of each result (stores on a body's first request only).
/// Returns whether every stage agreed with the served rows.
fn staged_requests(
    tr: &mut Trace,
    lib: &MemLibrary,
    requests: &[(String, Option<u64>)],
    cache: &EvalCache,
) -> Result<bool, String> {
    let limits = ReadLimits {
        max_body_bytes: 1 << 20,
    };
    let mut stored = BTreeSet::new();
    let mut ok = true;
    for (body, served_rows) in requests {
        let raw = request_bytes(body);
        let request = tr
            .span("http.read", |_| {
                http::read_request(&mut Cursor::new(raw.as_bytes()), limits)
            })
            .map_err(|e| e.to_string())?
            .ok_or("empty request")?;
        let parsed = tr
            .span("json.parse", |_| json::parse(&request.body))
            .map_err(|e| e.to_string())?;
        let text = parsed
            .get("spec_text")
            .and_then(Json::as_str)
            .ok_or("request without spec_text")?;
        let spec = tr
            .span("ir.parse", |_| parse_spec(text))
            .map_err(|e| e.to_string())?;
        let decoded = tr
            .span("wire.decode", |_| {
                wire::decode_evaluate(&parsed, WireLimits::default())
            })
            .map_err(|e| e.to_string())?;
        ok &= decoded.spec.content_hash() == spec.content_hash();
        let points = decoded.design_points();
        let results = evaluate_staged(tr, lib, &points);
        let rows: Vec<String> = results
            .iter()
            .enumerate()
            .map(|(i, r)| tr.span("wire.render", |_| wire::render_row(i, &points[i].label, r)))
            .collect();
        ok &= *served_rows == Some(rows_hash(rows.iter().map(|r| r.as_bytes())));

        let first = stored.insert(spec.content_hash());
        let mut schedules = BTreeSet::new();
        for (point, result) in points.iter().zip(&results) {
            let Ok(report) = result else { continue };
            if schedules.insert(report.schedule.total_budget) {
                let key = CacheKey::scbd(&spec, report.schedule.total_budget);
                if first {
                    tr.span("cache.store.scbd", |_| {
                        cache.store_scbd(&key, &report.schedule)
                    });
                }
                let loaded = tr.span("cache.load.scbd", |_| cache.load_scbd(&key));
                ok &= loaded.is_some_and(|s| s.used_cycles == report.schedule.used_cycles);
            }
            let key = alloc::alloc_cache_key(&spec, &report.schedule, lib, &point.options.alloc)
                .map_err(|e| e.to_string())?;
            if first {
                tr.span("cache.store.alloc", |_| {
                    cache.store_alloc(&key, &report.organization, &report.alloc_stats)
                });
            }
            let loaded = tr.span("cache.load.alloc", |_| cache.load_alloc(&key));
            ok &= loaded.is_some_and(|(org, _)| org == report.organization);
        }
    }
    Ok(ok)
}

/// Serial vs `nproc`-worker engine wall over the distinct `bodies`, and
/// a `first_row` event per parallel request.
fn engine_speedup(tr: &mut Trace, lib: &MemLibrary, bodies: &[String]) -> Result<f64, String> {
    let mut requests = Vec::with_capacity(bodies.len());
    for body in bodies {
        let parsed = json::parse(body.as_bytes()).map_err(|e| e.to_string())?;
        requests.push(
            wire::decode_evaluate(&parsed, WireLimits::default()).map_err(|e| e.to_string())?,
        );
    }
    let wall = |workers: usize, tr: &mut Trace| {
        let engine = Engine::builder(lib).workers(workers).build();
        let t = Instant::now();
        for request in &requests {
            let points = request.design_points();
            tr.span("engine.request", |tr| {
                engine.evaluate_stream(&points, |i, _| {
                    if i == 0 {
                        tr.event("first_row");
                    }
                })
            });
        }
        t.elapsed().as_secs_f64()
    };
    let serial = wall(1, &mut Trace::new(false));
    Ok(serial / wall(auto_workers(), tr))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let corpus: Vec<String> = memx_core::corpus::load_dir(&root.join("corpus"))
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|entry| entry.text)
        .collect();
    let requests = args.seconds as usize * STREAM_RATE + WARMUP;
    let streams: Vec<ClientStream> = (0..CLIENTS)
        .map(|c| client_stream(args.seed, c, &corpus, requests))
        .collect();
    let dir = out_dir(root).join(format!("run-{}", std::process::id()));
    let result = run_in(args, &streams, &dir, root);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    args: &Args,
    streams: &[ClientStream],
    dir: &Path,
    root: &Path,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(args);
    outcome.note("loop", "closed, 2 clients, one connection per request");
    outcome.note(
        "workers",
        &format!("daemon: {HANDLERS} handlers, engine budget {ENGINE_WORKERS}; 1 per request"),
    );
    let mut tr = Trace::new(args.trace);
    if !args.trace {
        let mut setup = Vec::with_capacity(SETUP_REPS);
        let mut daemon = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let booted = boot(None, &mut tr)?;
            setup.push(t.elapsed().as_secs_f64());
            daemon = Some(booted);
        }
        let daemon = daemon.expect("SETUP_REPS >= 1");
        let mut lp = closed_loop(daemon, streams, args.seconds, usize::MAX, &mut tr);
        outcome.peak_rss_mb = crate::peak_rss_mb();
        let served = served_stats(daemon)?;
        verify(streams, &mut lp, &served, None, &mut outcome)?;
        let latencies = lp.latencies();
        let p50 = stats::median(&latencies);
        outcome.e2e("setup_s", stats::median(&setup));
        outcome.e2e("batch_s", p50);
        outcome.e2e("latency_p50_ms", p50 * 1e3);
        outcome.e2e("latency_p99_ms", stats::quantile(&latencies, 0.99) * 1e3);
        outcome.e2e("throughput_rps", lp.sent() as f64 / lp.wall_s);
        outcome.samples = latencies.len();
        return Ok(outcome);
    }

    // Traced run: an untraced and a traced half, each on a fresh daemon,
    // then the leading requests again on a daemon with a fresh cache.
    let half = args.seconds / 2.0;
    let plain = boot(None, &mut Trace::new(false))?;
    let traced = boot(None, &mut tr)?;
    let cache_dir = dir.join("cache");
    let cached = boot(Some(&cache_dir), &mut tr)?;
    let mut plain_loop = closed_loop(plain, streams, half, usize::MAX, &mut Trace::new(false));
    let mut traced_loop = closed_loop(traced, streams, half, usize::MAX, &mut tr);
    let mut cached_loop = closed_loop(cached, streams, half, SAMPLE, &mut Trace::new(false));
    outcome.peak_rss_mb = crate::peak_rss_mb();
    let plain_served = served_stats(plain)?;
    let served = served_stats(traced)?;
    let cache_served = served_stats(cached)?;
    verify(streams, &mut plain_loop, &plain_served, None, &mut outcome)?;
    verify(streams, &mut traced_loop, &served, None, &mut outcome)?;
    verify(
        streams,
        &mut cached_loop,
        &cache_served,
        Some(&cache_dir),
        &mut outcome,
    )?;
    let p50 = stats::median(&plain_loop.latencies());
    outcome.samples = plain_loop.latencies().len();
    outcome.layer(
        "trace.overhead_pct",
        (stats::median(&traced_loop.latencies()) / p50 - 1.0) * 100.0,
    );

    let c = cache_served.cache;
    let hits = c.scbd.0 + c.alloc.0 + c.blocks.0;
    let lookups = hits + c.scbd.1 + c.alloc.1 + c.blocks.1;
    for (name, value) in [
        ("cache.scbd_hits", c.scbd.0),
        ("cache.scbd_misses", c.scbd.1),
        ("cache.alloc_hits", c.alloc.0),
        ("cache.alloc_misses", c.alloc.1),
        ("cache.blocks_hits", c.blocks.0),
        ("cache.blocks_misses", c.blocks.1),
        ("cache.write_failures", c.write_failures),
        ("cache.dir_bytes", dir_bytes(&cache_dir)),
        ("serve.requests", served.requests),
        ("serve.rows", served.rows),
        ("serve.rejected", served.rejected),
    ] {
        outcome.layer(name, value as f64);
    }
    outcome.layer("cache.hit_ratio", hits as f64 / lookups.max(1) as f64);

    // Stage-by-stage replay of each client's leading requests.
    let lib = MemLibrary::default_07um();
    let mut sample = Vec::new();
    let mut distinct = Vec::new();
    for (stream, client) in streams.iter().zip(&traced_loop.clients) {
        let leading = &stream.order[..client.sent.min(SAMPLE)];
        for &spec in leading {
            sample.push((stream.body(spec)?, client.first_rows.get(&spec).copied()));
        }
        let specs: BTreeSet<usize> = leading.iter().copied().collect();
        for spec in specs {
            distinct.push(stream.body(spec)?);
        }
    }
    let staged_cache = EvalCache::open(dir.join("staged")).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let staged_ok = tr.span("batch.staged", |tr| {
        staged_requests(tr, &lib, &sample, &staged_cache)
    })?;
    let staged_s = t.elapsed().as_secs_f64();
    outcome.check("staged replay agrees with the served rows", staged_ok);
    let speedup = engine_speedup(&mut tr, &lib, &distinct)?;
    outcome.layer("engine.speedup", speedup);
    outcome.layer(
        "engine.first_row_s",
        stats::median(&tr.event_offsets("first_row")),
    );

    let mut layers = BTreeMap::new();
    stages::stage_metrics(&tr, staged_s, &mut layers);
    for (name, span) in [
        ("ir.parse_us", "ir.parse"),
        ("http.read_us", "http.read"),
        ("json.parse_us", "json.parse"),
        ("wire.decode_us", "wire.decode"),
        ("wire.render_us", "wire.render"),
        ("cache.load_us.scbd", "cache.load.scbd"),
        ("cache.store_us.scbd", "cache.store.scbd"),
        ("cache.load_us.alloc", "cache.load.alloc"),
        ("cache.store_us.alloc", "cache.store.alloc"),
    ] {
        layers.insert(name, stages::median_us(&tr, span));
    }
    for (name, value) in layers {
        outcome.layer(name, value);
    }
    outcome.write_trace(&tr, root)?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        memx_core::corpus::load_dir(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../corpus"))
            .expect("the repository corpus loads")
            .into_iter()
            .map(|e| e.text)
            .collect()
    }

    #[test]
    fn streams_are_seeded_half_repeats_and_disjoint_between_clients() {
        let corpus = corpus();
        let bodies = |s: &ClientStream| -> Vec<String> {
            (0..s.sources.len()).map(|i| s.body(i).unwrap()).collect()
        };
        let a = client_stream(7, 0, &corpus, 40);
        let b = client_stream(7, 1, &corpus, 40);
        assert_eq!(a.order, client_stream(7, 0, &corpus, 40).order);
        assert_eq!(bodies(&a), bodies(&client_stream(7, 0, &corpus, 40)));
        assert_ne!(
            bodies(&a)[4..],
            bodies(&client_stream(8, 0, &corpus, 40))[4..]
        );
        for s in [&a, &b] {
            assert_eq!(s.order.len(), 40);
            assert_eq!(s.sources.len(), 20, "every second request is new");
            for (k, &body) in s.order.iter().enumerate() {
                if k % 2 == 0 {
                    assert_eq!(body, k / 2, "a new spec at every even request");
                } else {
                    assert!(body <= k / 2, "a repeat of a spec already sent");
                }
            }
        }
        let (a, b) = (bodies(&a), bodies(&b));
        assert!(a.iter().all(|x| !b.contains(x)));
        // The client's half of the corpus leads its new specs.
        assert!(a[0].contains(&json_escaped(&corpus[0])));
        assert!(b[0].contains(&json_escaped(&corpus[1])));
    }

    fn json_escaped(text: &str) -> String {
        Json::Str(text.to_string())
            .encode()
            .trim_matches('"')
            .to_string()
    }

    /// The exact counters a fixed stream leaves in the daemon's cache:
    /// a new spec's SCBD lookups all miss and a repeat's all hit; every
    /// allocation lookup of a repeat hits; each miss stores one entry.
    /// Then a wrong served answer fails every request that sent its body.
    #[test]
    fn a_fixed_stream_has_exact_cache_counts_and_wrong_rows_fail() {
        let corpus = corpus();
        let streams: Vec<ClientStream> = (0..CLIENTS)
            .map(|c| client_stream(11, c, &corpus, 24))
            .collect();
        let (mut new, mut all) = (Lookups::default(), Lookups::default());
        for s in &streams {
            let per_body: Vec<Lookups> = (0..s.sources.len())
                .map(|i| reference(&s.body(i).unwrap()).unwrap().1)
                .collect();
            for (k, &b) in s.order.iter().enumerate() {
                all.scbd += per_body[b].scbd;
                all.alloc += per_body[b].alloc;
                if k % 2 == 0 {
                    new.scbd += per_body[b].scbd;
                    new.alloc += per_body[b].alloc;
                }
            }
        }
        // Seed 11: the 24 new requests schedule 43 distinct budgets, not
        // 48 (a tightened budget can equal the spec's, or be infeasible).
        assert_eq!((new.scbd, all.scbd), (43, 84));

        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let dir = out_dir(&root).join(format!("test-counts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = boot(Some(&dir), &mut Trace::new(false)).unwrap();
        let mut lp = closed_loop(daemon, &streams, 60.0, usize::MAX, &mut Trace::new(false));
        assert_eq!(lp.sent(), CLIENTS * 24, "the loop ends when the streams do");
        let served = served_stats(daemon).unwrap();
        assert_eq!(served.cache.scbd, (all.scbd - new.scbd, new.scbd));
        assert_eq!(served.cache.alloc.0 + served.cache.alloc.1, all.alloc);
        assert!(served.cache.alloc.1 <= new.alloc);
        assert!(counts_agree(&served.cache, all, entry_files(&dir)));
        let args = Args {
            workload: "serve-mixed".into(),
            seed: 11,
            seconds: 1.0,
            trace: false,
        };
        let mut outcome = Outcome::new(&args);
        verify(&streams, &mut lp, &served, Some(&dir), &mut outcome).unwrap();
        assert_eq!(
            outcome.tally,
            Tally {
                attempted: 48,
                failed: 0
            }
        );

        // Corrupt the first answer client 0 got for its first spec.
        let sends = streams[0].sends(0, 24);
        *lp.clients[0].first_rows.get_mut(&0).unwrap() ^= 1;
        let mut outcome = Outcome::new(&args);
        verify(&streams, &mut lp, &served, Some(&dir), &mut outcome).unwrap();
        assert_eq!(
            outcome.tally,
            Tally {
                attempted: 48,
                failed: sends
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
