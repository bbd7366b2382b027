//! In-memory span and counter recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! repository's public functions (no probe lives inside the program).
//! A disabled trace reads no clock and records nothing, so the untraced
//! runs that produce the end-to-end numbers pay only a branch per call.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use memx_serve::json::Json;

/// One timed call: `[start_ns, end_ns)` from the trace origin, and the
/// span that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Self::with_origin(on, Instant::now())
    }

    /// A trace sharing `origin` with others (one per client thread), so
    /// [`Trace::absorb`] can merge them on one time axis.
    pub fn with_origin(on: bool, origin: Instant) -> Self {
        Trace {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Records an instant (a zero-length span) under the open span.
    pub fn event(&mut self, name: &'static str) {
        self.span(name, |_| ());
    }

    /// Adds `value` to counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counters.entry(name).or_default() += value;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::secs).collect()
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Seconds from each `event` span's parent start to the event.
    pub fn event_offsets(&self, event: &str) -> Vec<f64> {
        self.named(event)
            .filter_map(|e| {
                let parent = &self.spans[e.parent?];
                Some((e.start_ns - parent.start_ns) as f64 * 1e-9)
            })
            .collect()
    }

    /// Appends `other`'s spans and counters (same origin required).
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + base,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
        for (name, value) in other.counters {
            *self.counters.entry(name).or_default() += value;
        }
    }

    /// Writes the trace once, as one versioned JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(s.id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect();
        let doc = Json::Obj(vec![
            ("version".into(), Json::Num(1.0)),
            ("spans".into(), Json::Arr(spans)),
            ("counters".into(), Json::Obj(counters)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_events_measure_from_their_parent() {
        let mut t = Trace::new(true);
        let r = t.span("batch", |t| {
            t.span("scbd", |_| ());
            t.event("first_row");
            t.span("scbd", |_| 7)
        });
        assert_eq!(r, 7);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("batch", None),
                ("scbd", Some(0)),
                ("first_row", Some(0)),
                ("scbd", Some(0))
            ]
        );
        assert_eq!(t.durations("scbd").len(), 2);
        assert_eq!(t.event_offsets("first_row").len(), 1);
        assert!(t.total("batch") >= t.total("scbd"));
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 1)), 1);
        t.count("c", 2.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 0.0);
    }

    #[test]
    fn absorb_renumbers_spans_and_sums_counters() {
        let origin = Instant::now();
        let mut a = Trace::with_origin(true, origin);
        let mut b = Trace::with_origin(true, origin);
        a.span("req", |_| ());
        b.span("req", |t| t.span("inner", |_| ()));
        a.count("n", 1.0);
        b.count("n", 2.0);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.counter("n"), 3.0);
    }
}
