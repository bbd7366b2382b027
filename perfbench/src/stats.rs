//! Order statistics over timing samples, and failure accounting.

/// `q`-quantile (`q` in `0..=1`) of `samples`, linearly interpolated
/// between the two nearest ranks (the "R-7" rule spreadsheets use).
/// A failed operation is recorded as `f64::INFINITY`, so it counts as
/// missing every latency limit: a quantile that reaches it is infinite.
///
/// # Panics
///
/// Panics on an empty sample set — every caller measures at least once.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if sorted[hi].is_infinite() {
        return sorted[hi];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples` (see [`quantile`]).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Operations attempted and failed. An operation fails when it errors,
/// is refused, or answers anything but the verified reference output.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation; returns `ok` so call sites can chain it.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Marks `n` already-recorded operations as failed (a check made after
    /// the run found their answers wrong).
    pub fn fail_recorded(&mut self, n: u64) {
        self.failed = (self.failed + n).min(self.attempted);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 101.0);
        assert_eq!(quantile(&samples, 0.99), 100.0);
        assert_eq!(quantile(&samples, 0.25), 26.0);
        // Between ranks: 1..=10 at p99 sits 0.91 of the way from 9 to 10.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&ten, 0.99) - 9.91).abs() < 1e-12);
    }

    #[test]
    fn failures_count_as_missing_the_latency_limit() {
        // One failure in 1000 leaves the p99 finite; eleven push it out.
        let mut samples = vec![1.0; 1000];
        samples[0] = f64::INFINITY;
        assert_eq!(quantile(&samples, 0.99), 1.0);
        for s in samples.iter_mut().take(11) {
            *s = f64::INFINITY;
        }
        assert!(quantile(&samples, 0.99).is_infinite());
        assert_eq!(median(&samples), 1.0);
    }

    #[test]
    fn tally_counts_refusals_and_wrong_answers() {
        let mut t = Tally::default();
        assert!(t.record(true));
        assert!(!t.record(false)); // refused
        t.record(true);
        t.record(true);
        t.fail_recorded(1); // found wrong after the run
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.failed_frac(), 0.5);
        t.fail_recorded(10);
        assert_eq!(t.failed, 4, "never more failures than attempts");
        let mut u = Tally::default();
        assert_eq!(u.failed_frac(), 0.0);
        u.merge(t);
        assert_eq!(u, t);
    }
}
