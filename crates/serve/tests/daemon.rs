//! Wire-layer tests against a real daemon on loopback: abusive inputs
//! must produce clean errors with the engine still serviceable, and
//! served rows must stay byte-identical to the offline reference under
//! concurrency and cache warmth.

#![expect(
    clippy::disallowed_methods,
    reason = "the keep-alive test measures response latency on the wall clock"
)]

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memx_core::cache::EvalCache;
use memx_memlib::MemLibrary;
use memx_serve::client;
use memx_serve::http::ReadLimits;
use memx_serve::server::{ServeConfig, Server};
use memx_serve::wire;

/// Boots a daemon on an ephemeral loopback port and returns its
/// address. The server thread is detached; the whole process exits with
/// the test binary.
fn boot(cfg: ServeConfig) -> SocketAddr {
    let server = Server::bind(MemLibrary::default_07um(), cfg).unwrap();
    let addr = server.local_addr();
    std::thread::spawn(move || server.run());
    addr
}

fn boot_default() -> SocketAddr {
    boot(ServeConfig::default())
}

fn rows_text(response: &client::Response) -> Vec<String> {
    response
        .rows
        .iter()
        .map(|r| String::from_utf8(r.clone()).unwrap())
        .collect()
}

/// The daemon must answer a well-formed request after the abuse; this
/// is the "engine still serviceable" check shared by the abuse tests.
fn assert_serviceable(addr: SocketAddr) {
    let demo = wire::demo_request_text();
    let response = client::post_evaluate(addr, &demo).unwrap();
    assert_eq!(response.status, 200);
    let offline = wire::offline_rows(demo.as_bytes(), Default::default()).unwrap();
    assert_eq!(rows_text(&response), offline);
}

fn raw_request(addr: SocketAddr, payload: &[u8]) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    (&stream).write_all(payload).unwrap();
    stream
}

#[test]
fn malformed_json_gets_400_and_engine_stays_serviceable() {
    let addr = boot_default();
    let body = "{not json";
    let head = format!(
        "POST /v1/evaluate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let stream = raw_request(addr, head.as_bytes());
    let response = client::read_response(&mut BufReader::new(stream)).unwrap();
    assert_eq!(response.status, 400);
    let text = String::from_utf8(response.body).unwrap();
    assert!(text.contains("\"status\":400"), "{text}");
    assert_serviceable(addr);
}

#[test]
fn oversized_body_gets_413() {
    let addr = boot(ServeConfig {
        read_limits: ReadLimits { max_body_bytes: 64 },
        ..ServeConfig::default()
    });
    let body = "x".repeat(65);
    let head = format!(
        "POST /v1/evaluate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let stream = raw_request(addr, head.as_bytes());
    let response = client::read_response(&mut BufReader::new(stream)).unwrap();
    assert_eq!(response.status, 413);
    // The demo body is itself over this daemon's 64-byte cap, so probe
    // serviceability with a request that fits.
    let stats = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
}

#[test]
fn truncated_chunked_body_is_dropped_cleanly() {
    let addr = boot(ServeConfig {
        // Short timeout so the daemon gives up on the stalled body
        // quickly instead of holding the handler for the default 10s.
        read_timeout: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    });
    // Declare a chunk, send half of it, then close.
    let head = "POST /v1/evaluate HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nff\r\n{\"spec\":";
    let stream = raw_request(addr, head.as_bytes());
    drop(stream);
    assert_serviceable(addr);
}

#[test]
fn mid_stream_disconnect_leaves_daemon_serviceable() {
    let addr = boot_default();
    let demo = wire::demo_request_text();
    let head = format!(
        "POST /v1/evaluate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{demo}",
        demo.len()
    );
    let mut stream = raw_request(addr, head.as_bytes());
    // Read just the status line, then vanish mid-stream.
    let mut first = [0u8; 16];
    stream.read_exact(&mut first).unwrap();
    assert!(first.starts_with(b"HTTP/1.1 200"));
    drop(stream);
    assert_serviceable(addr);
}

#[test]
fn served_rows_match_offline_cold_and_warm_with_cache() {
    let dir = std::env::temp_dir().join(format!("memx-serve-test-{}", std::process::id()));
    let cache = Arc::new(EvalCache::open(&dir).unwrap());
    let addr = boot(ServeConfig {
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    });
    let demo = wire::demo_request_text();
    let offline = wire::offline_rows(demo.as_bytes(), Default::default()).unwrap();
    for pass in ["cold", "warm"] {
        let response = client::post_evaluate(addr, &demo).unwrap();
        assert_eq!(response.status, 200, "{pass}");
        assert_eq!(rows_text(&response), offline, "{pass}");
        assert_eq!(
            response.field("x-memx-rows"),
            Some(offline.len().to_string().as_str()),
            "{pass}"
        );
    }
    // The warm pass must have hit the cache.
    let stats = cache.stats();
    assert!(
        stats.scbd_hits + stats.alloc_hits + stats.blocks_hits > 0,
        "no cache hits after a warm pass"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_each_get_byte_identical_rows() {
    let addr = boot_default();
    let demo = wire::demo_request_text();
    let offline = wire::offline_rows(demo.as_bytes(), Default::default()).unwrap();
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let demo = demo.clone();
            std::thread::spawn(move || client::post_evaluate(addr, &demo).unwrap())
        })
        .collect();
    for handle in handles {
        let response = handle.join().unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(rows_text(&response), offline);
    }
}

#[test]
fn saturated_daemon_sheds_with_503_and_retry_after() {
    let addr = boot(ServeConfig {
        handlers: 1,
        queue_depth: 0,
        // Generous: conn1 must stay parked on its unfinished body for
        // the whole test.
        read_timeout: Some(Duration::from_secs(60)),
        ..ServeConfig::default()
    });
    // conn1 occupies the only handler: headers complete, body withheld.
    let hold = raw_request(
        addr,
        b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 10\r\n\r\n",
    );
    // Give the accept loop time to hand conn1 to the handler.
    std::thread::sleep(Duration::from_millis(200));
    // conn2 must be shed deterministically: active == handlers + 0.
    let shed = raw_request(addr, b"GET /v1/stats HTTP/1.1\r\n\r\n");
    let response = client::read_response(&mut BufReader::new(shed)).unwrap();
    assert_eq!(response.status, 503);
    let retry: u64 = response.field("retry-after").unwrap().parse().unwrap();
    assert!(retry >= 1);
    // Releasing conn1 frees the handler; the daemon serves again.
    drop(hold);
    std::thread::sleep(Duration::from_millis(200));
    assert_serviceable(addr);

    let stats = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let parsed = memx_serve::json::parse(&stats.body).unwrap();
    assert!(parsed.get("rejected_requests").unwrap().as_u64().unwrap() >= 1);
}

#[test]
fn unknown_paths_and_methods_get_404_and_405() {
    let addr = boot_default();
    let missing = client::get(addr, "/nope").unwrap();
    assert_eq!(missing.status, 404);
    let wrong_method = client::get(addr, "/v1/evaluate").unwrap();
    assert_eq!(wrong_method.status, 405);
}

#[test]
fn stats_counts_requests_and_rows() {
    let addr = boot_default();
    let demo = wire::demo_request_text();
    let rows = wire::offline_rows(demo.as_bytes(), Default::default())
        .unwrap()
        .len() as u64;
    client::post_evaluate(addr, &demo).unwrap();
    client::post_evaluate(addr, &demo).unwrap();
    let stats = client::get(addr, "/v1/stats").unwrap();
    let parsed = memx_serve::json::parse(&stats.body).unwrap();
    assert_eq!(parsed.get("requests").unwrap().as_u64().unwrap(), 2);
    assert_eq!(
        parsed.get("rows_streamed").unwrap().as_u64().unwrap(),
        2 * rows
    );
}

#[test]
fn keep_alive_requests_answer_without_delayed_ack_stalls() {
    let addr = boot_default();
    let demo = wire::demo_request_text();
    let offline = wire::offline_rows(demo.as_bytes(), Default::default()).unwrap();
    let request = format!(
        "POST /v1/evaluate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{demo}",
        demo.len()
    );
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(&stream);
    let mut latencies = Vec::new();
    for _ in 0..6 {
        let sent = Instant::now();
        (&stream).write_all(request.as_bytes()).unwrap();
        let response = client::read_response(&mut reader).unwrap();
        latencies.push(sent.elapsed());
        assert_eq!(response.status, 200);
        assert_eq!(rows_text(&response), offline);
    }
    // Requests 2-6 reuse the connection; a Nagle hold on a streamed row
    // costs each of them a delayed-ACK timeout (about 40 ms).
    let mut reused = latencies[1..].to_vec();
    reused.sort();
    assert!(
        reused[reused.len() / 2] < Duration::from_millis(20),
        "keep-alive latencies {latencies:?}"
    );
}

/// `SO_LINGER` with a zero timeout, so `close` resets the connection,
/// as the benchmark's serve clients do.
#[cfg(target_os = "linux")]
fn reset_on_close(stream: &TcpStream) {
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
    assert_eq!(rc, 0, "{}", std::io::Error::last_os_error());
}

#[cfg(not(target_os = "linux"))]
fn reset_on_close(_: &TcpStream) {}

#[test]
fn reset_closed_connections_are_all_answered_and_counted() {
    const CLIENTS: usize = 2;
    const REQUESTS: usize = 2_500;
    let addr = boot(ServeConfig {
        handlers: 2,
        engine_workers: 2,
        ..ServeConfig::default()
    });
    // The demo batch without its last point: three rows, like the
    // benchmark's requests.
    let demo = wire::demo_request_text();
    let body = demo.replace(
        ",\n    {\"label\": \"budget 10\", \"cycle_budget\": 10}",
        "",
    );
    let offline = wire::offline_rows(body.as_bytes(), Default::default()).unwrap();
    assert_eq!(offline.len(), 3);
    let request = format!(
        "POST /v1/evaluate HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let request = request.clone();
            let offline = offline.clone();
            std::thread::spawn(move || {
                for k in 0..REQUESTS {
                    let stream = raw_request(addr, request.as_bytes());
                    reset_on_close(&stream);
                    let response = client::read_response(&mut BufReader::new(&stream))
                        .unwrap_or_else(|e| panic!("request {k}: {e}"));
                    assert_eq!(response.status, 200, "request {k}");
                    assert_eq!(rows_text(&response), offline, "request {k}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    let stats = client::get(addr, "/v1/stats").unwrap();
    let parsed = memx_serve::json::parse(&stats.body).unwrap();
    let count = |name| parsed.get(name).unwrap().as_u64().unwrap();
    assert_eq!(count("requests"), (CLIENTS * REQUESTS) as u64);
    assert_eq!(count("rows_streamed"), (CLIENTS * REQUESTS * 3) as u64);
    assert_eq!(count("rejected_requests"), 0);
}
