//! memx-serve: a resident exploration daemon behind a typed request API.
//!
//! The offline binaries pay the full engine + cache warm-up cost on
//! every invocation. This crate keeps one [`Engine`](memx_core::engine::Engine)
//! configuration and one warm [`EvalCache`](memx_core::cache::EvalCache) resident behind
//! a small HTTP/1.1 + JSON protocol, so repeated exploration batches
//! (interactive sweeps, CI smoke passes) reuse everything the previous
//! request computed.
//!
//! Layering, bottom up:
//!
//! - [`json`] — hand-rolled JSON value, parser and encoder (the build
//!   environment is offline; no serde).
//! - [`http`] — blocking HTTP/1.1 framing over `std::net`: request
//!   parsing with hard byte limits, plain and chunked responses with
//!   trailers.
//! - [`wire`] — the typed protocol: request decoding into
//!   [`memx_ir::AppSpec`] + evaluation option batches, row rendering,
//!   and the offline reference ([`wire::offline_rows`]) that served
//!   rows are byte-compared against.
//! - [`telemetry`] — service counters; the crate's only wall-clock
//!   surface.
//! - [`server`] — admission control, worker budgeting and the
//!   connection loop.
//! - [`client`] — a scripted client used by the bench harness and the
//!   tests.
//!
//! The protocol itself is documented in `docs/serve_protocol.md`.

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

pub mod client;
pub mod http;
pub mod json;
pub mod server;
pub mod telemetry;
pub mod wire;
