//! Thread-safe per-array access counters.

#![expect(
    clippy::disallowed_types,
    reason = "the profiling counter primitive itself"
)]

use std::sync::atomic::{AtomicU64, Ordering};

/// Read/write counters for one tracked array.
///
/// Counters are lock-free; instrumented inner loops only pay two relaxed
/// atomic increments per access.
#[derive(Debug, Default)]
pub struct AccessCounter {
    reads: AtomicU64,
    writes: AtomicU64,
}

impl AccessCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one read.
    #[inline]
    pub fn count_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one write.
    #[inline]
    pub fn count_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` reads at once (bulk transfers).
    #[inline]
    pub fn count_reads(&self, n: u64) {
        self.reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` writes at once (bulk transfers).
    #[inline]
    pub fn count_writes(&self, n: u64) {
        self.writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Current (reads, writes).
    pub fn counts(&self) -> (u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
        )
    }

    /// Resets both counters to zero.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_accumulate() {
        let c = AccessCounter::new();
        c.count_read();
        c.count_read();
        c.count_write();
        c.count_reads(10);
        c.count_writes(5);
        assert_eq!(c.counts(), (12, 6));
    }

    #[test]
    fn reset_zeroes() {
        let c = AccessCounter::new();
        c.count_read();
        c.reset();
        assert_eq!(c.counts(), (0, 0));
    }

    #[test]
    fn concurrent_increments_do_not_lose_counts() {
        let c = Arc::new(AccessCounter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.count_read();
                        c.count_write();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.counts(), (4000, 4000));
    }
}
