//! The daemon's only wall-clock surface.
//!
//! The ban on clock reads stays hard for the rest of the serve crate:
//! request handling derives everything from the request body, and the
//! one thing a resident service legitimately wants from the clock —
//! its own uptime — lives here, behind a counter API. This file is the
//! serve crate's only exception to `clippy.toml`'s disallowed
//! `Instant::now`; moving one anywhere else fails CI.

#![expect(
    clippy::disallowed_methods,
    reason = "the daemon's only wall-clock surface: uptime and Retry-After bookkeeping; request handling derives everything from the request body"
)]

use std::sync::Mutex;
use std::time::Instant;

/// Monotone service counters plus the start instant.
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    counters: Mutex<Counters>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    requests: u64,
    rows_streamed: u64,
    rejected_requests: u64,
}

/// A point-in-time copy of the counters, for the `/v1/stats` endpoint.
#[derive(Debug, Clone, Copy)]
pub struct TelemetrySnapshot {
    /// Seconds since the daemon started.
    pub uptime_seconds: f64,
    /// Completed evaluation requests (successful or errored on the
    /// wire; rejected requests are counted separately).
    pub requests: u64,
    /// Rows successfully written to clients, across all requests.
    pub rows_streamed: u64,
    /// Connections shed with 503 at admission.
    pub rejected_requests: u64,
}

impl Telemetry {
    /// Starts the clock.
    pub fn new() -> Self {
        Telemetry {
            started: Instant::now(),
            counters: Mutex::new(Counters::default()),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut Counters) -> R) -> R {
        // The counters are plain integers; a poisoned lock (a panicking
        // handler mid-increment) leaves them merely stale, never torn.
        f(&mut self.counters.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Records one completed evaluation request and the rows it
    /// actually delivered.
    pub fn note_request(&self, rows_streamed: u64) {
        self.with(|c| {
            c.requests += 1;
            c.rows_streamed += rows_streamed;
        });
    }

    /// Records one connection shed with 503.
    pub fn note_rejected(&self) {
        self.with(|c| c.rejected_requests += 1);
    }

    /// The current counter values and uptime.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self.with(|c| *c);
        TelemetrySnapshot {
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            requests: counters.requests,
            rows_streamed: counters.rows_streamed,
            rejected_requests: counters.rejected_requests,
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new();
        t.note_request(3);
        t.note_request(0);
        t.note_rejected();
        let s = t.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.rows_streamed, 3);
        assert_eq!(s.rejected_requests, 1);
        assert!(s.uptime_seconds >= 0.0);
    }
}
