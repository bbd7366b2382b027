//! The `memx-serve` binary: CLI parsing, daemon boot, and a
//! `--self-drive` mode that exercises the full client → wire → engine
//! path against the in-process offline reference (the first step of the
//! serve gate in `memx-gates`).
//!
//! All configuration arrives as CLI arguments; the daemon reads no
//! environment variables (`std::env::args` is the one ambient input,
//! and it is read once, here).

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use memx_core::cache::EvalCache;
use memx_memlib::MemLibrary;
use memx_serve::server::{ServeConfig, Server};
use memx_serve::{client, wire};

const USAGE: &str = "\
memx-serve — resident exploration daemon

USAGE:
    memx-serve [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>    listen address        [default: 127.0.0.1:7199]
    --cache-dir <DIR>     persistent evaluation cache directory
    --handlers <N>        connection handler threads      [default: 4]
    --queue-depth <N>     admitted-but-waiting connections [default: 16]
    --workers <N>         evaluation worker budget (0 = per core)
    --self-drive          boot on an ephemeral port, run the demo batch
                          cold and warm, diff against the offline
                          reference, then exit (0 = identical)
    --help                print this help
";

struct Cli {
    addr: String,
    cache_dir: Option<String>,
    handlers: usize,
    queue_depth: usize,
    workers: usize,
    self_drive: bool,
}

fn parse_args() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        addr: "127.0.0.1:7199".to_string(),
        cache_dir: None,
        handlers: 4,
        queue_depth: 16,
        workers: 0,
        self_drive: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value (see --help)"))
        };
        match arg.as_str() {
            "--addr" => cli.addr = value("--addr")?,
            "--cache-dir" => cli.cache_dir = Some(value("--cache-dir")?),
            "--handlers" => {
                cli.handlers = value("--handlers")?
                    .parse()
                    .map_err(|_| "--handlers needs an integer".to_string())?;
            }
            "--queue-depth" => {
                cli.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth needs an integer".to_string())?;
            }
            "--workers" => {
                cli.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?;
            }
            "--self-drive" => cli.self_drive = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(Some(cli))
}

fn open_cache(dir: &str) -> Result<Arc<EvalCache>, String> {
    EvalCache::open(dir)
        .map(Arc::new)
        .map_err(|e| format!("cannot open cache dir {dir}: {e}"))
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("memx-serve: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = if cli.self_drive {
        self_drive(&cli)
    } else {
        serve(&cli)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("memx-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn config(cli: &Cli, addr: String) -> Result<ServeConfig, String> {
    let cache = match &cli.cache_dir {
        // A requested cache that cannot open is fatal: silently serving
        // cold would defeat the daemon's purpose.
        Some(dir) => Some(open_cache(dir)?),
        None => None,
    };
    Ok(ServeConfig {
        addr,
        handlers: cli.handlers,
        queue_depth: cli.queue_depth,
        engine_workers: cli.workers,
        cache,
        ..ServeConfig::default()
    })
}

fn serve(cli: &Cli) -> Result<(), String> {
    let server = Server::bind(MemLibrary::default_07um(), config(cli, cli.addr.clone())?)
        .map_err(|e| e.to_string())?;
    // Scripts wait for this exact line; flush so a piped stdout
    // delivers it before the first request.
    let mut out = std::io::stdout();
    let _ = writeln!(out, "memx-serve listening on {}", server.local_addr());
    let _ = out.flush();
    server.run();
    Ok(())
}

/// Boots the daemon on an ephemeral port and proves, over real TCP,
/// that served rows are byte-identical to the offline reference — cold,
/// then warm (with a cache, the warm pass must also report hits).
/// Without `--cache-dir` the store is a fresh temp directory of the
/// daemon's own, removed again on every exit path.
fn self_drive(cli: &Cli) -> Result<(), String> {
    let (cache_dir, _own_store) = match &cli.cache_dir {
        Some(dir) => (dir.clone(), None),
        None => {
            let dir = std::env::temp_dir().join(format!("memx-serve-drive-{}", std::process::id()));
            (dir.to_string_lossy().into_owned(), Some(OwnStore(dir)))
        }
    };
    let cli_with_cache = Cli {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: Some(cache_dir),
        handlers: cli.handlers,
        queue_depth: cli.queue_depth,
        workers: cli.workers,
        self_drive: false,
    };
    let cfg = config(&cli_with_cache, cli_with_cache.addr.clone())?;
    let wire_limits = cfg.wire_limits;
    let server = Server::bind(MemLibrary::default_07um(), cfg).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    std::thread::spawn(move || server.run());

    let demo = wire::demo_request_text();
    let offline = wire::offline_rows(demo.as_bytes(), wire_limits)?;

    for pass in ["cold", "warm"] {
        let response =
            client::post_evaluate(addr, &demo).map_err(|e| format!("{pass} pass: {e}"))?;
        if response.status != 200 {
            return Err(format!("{pass} pass: status {}", response.status));
        }
        let served: Vec<String> = response
            .rows
            .iter()
            .map(|r| String::from_utf8_lossy(r).into_owned())
            .collect();
        if served != offline {
            return Err(format!(
                "{pass} pass: served rows differ from offline reference\nserved: {served:#?}\noffline: {offline:#?}"
            ));
        }
        let hits = cache_hits(&response);
        println!(
            "self-drive {pass}: {} rows byte-identical to offline, {hits} cache hits",
            served.len()
        );
        if pass == "warm" && hits == 0 {
            return Err("warm pass reported zero cache hits".to_string());
        }
    }

    let stats = client::get(addr, "/v1/stats").map_err(|e| format!("stats: {e}"))?;
    if stats.status != 200 {
        return Err(format!("stats: status {}", stats.status));
    }
    println!("self-drive stats: {}", String::from_utf8_lossy(&stats.body));
    Ok(())
}

/// A store directory the daemon created for itself, removed on drop.
struct OwnStore(PathBuf);

impl Drop for OwnStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sums the hit counts out of the `x-memx-cache-*` trailers
/// (`"<hits> hits / <misses> misses"`).
fn cache_hits(response: &client::Response) -> u64 {
    ["scbd", "alloc", "blocks"]
        .iter()
        .filter_map(|kind| response.field(&format!("x-memx-cache-{kind}")))
        .filter_map(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}
