//! The `memx-serve` binary: CLI parsing and daemon boot.
//!
//! All configuration arrives as CLI arguments; the daemon reads no
//! environment variables (`std::env::args` is the one ambient input,
//! and it is read once, here).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use memx_core::cache::EvalCache;
use memx_memlib::MemLibrary;
use memx_serve::server::{ServeConfig, Server};

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
    --help                print this help
";

struct Cli {
    addr: String,
    cache_dir: Option<String>,
    handlers: usize,
    queue_depth: usize,
    workers: usize,
}

fn parse_args() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        addr: "127.0.0.1:7199".to_string(),
        cache_dir: None,
        handlers: 4,
        queue_depth: 16,
        workers: 0,
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
    match serve(cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("memx-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn config(cli: Cli) -> Result<ServeConfig, String> {
    let cache = match &cli.cache_dir {
        // A requested cache that cannot open is fatal: silently serving
        // cold would defeat the daemon's purpose.
        Some(dir) => Some(open_cache(dir)?),
        None => None,
    };
    Ok(ServeConfig {
        addr: cli.addr,
        handlers: cli.handlers,
        queue_depth: cli.queue_depth,
        engine_workers: cli.workers,
        cache,
        ..ServeConfig::default()
    })
}

fn serve(cli: Cli) -> Result<(), String> {
    let server =
        Server::bind(MemLibrary::default_07um(), config(cli)?).map_err(|e| e.to_string())?;
    // Scripts wait for this exact line; flush so a piped stdout
    // delivers it before the first request.
    let mut out = std::io::stdout();
    let _ = writeln!(out, "memx-serve listening on {}", server.local_addr());
    let _ = out.flush();
    server.run();
    Ok(())
}
