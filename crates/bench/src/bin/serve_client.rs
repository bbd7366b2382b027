//! Scripted client for `memx-serve`, used by the serve gate of
//! `memx-gates` to diff daemon-served rows against the offline
//! reference.
//!
//! Modes:
//!
//! - `serve_client demo` — print the built-in demo request body.
//! - `serve_client offline` — read a request body on stdin, evaluate it
//!   in-process, print the reference rows.
//! - `serve_client evaluate <addr>` — read a request body on stdin,
//!   POST it to the daemon, print streamed rows to stdout and the
//!   telemetry trailers to stderr.
//! - `serve_client stats <addr>` — print the daemon's `/v1/stats` body.

use std::io::Read;
use std::net::SocketAddr;
use std::process::ExitCode;

use memx_serve::{client, wire};

const USAGE: &str = "usage: serve_client demo | offline | evaluate <addr> | stats <addr>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["demo"] => {
            print!("{}", wire::demo_request_text());
            Ok(())
        }
        ["offline"] => offline(),
        ["evaluate", addr] => parse_addr(addr).and_then(evaluate),
        ["stats", addr] => parse_addr(addr).and_then(stats),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("serve_client: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse_addr(addr: &str) -> Result<SocketAddr, String> {
    addr.parse()
        .map_err(|_| format!("bad address `{addr}` (want HOST:PORT)"))
}

fn read_stdin() -> Result<Vec<u8>, String> {
    let mut body = Vec::new();
    std::io::stdin()
        .read_to_end(&mut body)
        .map_err(|e| format!("reading stdin: {e}"))?;
    Ok(body)
}

fn offline() -> Result<(), String> {
    let body = read_stdin()?;
    for row in wire::offline_rows(&body, wire::WireLimits::default())? {
        print!("{row}");
    }
    Ok(())
}

fn evaluate(addr: SocketAddr) -> Result<(), String> {
    let body = String::from_utf8(read_stdin()?).map_err(|e| format!("stdin not UTF-8: {e}"))?;
    let response = client::post_evaluate(addr, &body).map_err(|e| e.to_string())?;
    if response.status != 200 {
        return Err(format!(
            "status {}: {}",
            response.status,
            String::from_utf8_lossy(&response.body)
        ));
    }
    for row in &response.rows {
        print!("{}", String::from_utf8_lossy(row));
    }
    for (name, value) in &response.trailers {
        eprintln!("{name}: {value}");
    }
    Ok(())
}

fn stats(addr: SocketAddr) -> Result<(), String> {
    let response = client::get(addr, "/v1/stats").map_err(|e| e.to_string())?;
    if response.status != 200 {
        return Err(format!("status {}", response.status));
    }
    println!("{}", String::from_utf8_lossy(&response.body));
    Ok(())
}
