//! Harness-side spans: timed intervals around calls into the program's
//! public functions, kept in memory and written out when a traced run
//! ends. The program itself is not instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Spans of one request (a job, a replay case) share this id.
    pub request: u64,
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
}

/// The recorder. A disabled recorder runs the closures and keeps nothing,
/// which is how untraced runs measure with tracing off.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent child spans.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let out = f(id);
        self.record(name, parent, request, id, t0, Instant::now());
        out
    }

    /// Records an interval measured elsewhere (e.g. a job's wait in the
    /// server, known only once it completes). Returns the span id.
    pub fn record_interval(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.record(name, parent, request, id, start, end);
        id
    }

    fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_us: start.saturating_duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
        };
        self.spans.lock().expect("span lock").push(span);
    }

    /// Durations of every span with this name, in seconds.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us * 1e-6)
            .collect()
    }

    /// Span counts and total durations per name, for the run summary.
    pub fn summary(&self) -> BTreeMap<String, (usize, f64)> {
        let mut out: BTreeMap<String, (usize, f64)> = BTreeMap::new();
        for s in self.spans.lock().expect("span lock").iter() {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.dur_us * 1e-6;
        }
        out
    }

    /// The spans in Chrome `about:tracing` JSON (one track per request).
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span lock");
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}{}",
                s.name,
                s.request,
                s.start_us,
                s.dur_us,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}
