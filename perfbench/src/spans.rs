//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end and the id of its parent span.
//! Spans are placed in the benchmark's own code around the public calls
//! it makes; nothing inside the simulator is instrumented. Parents are
//! passed explicitly, so a span opened on a pool worker can hang under
//! a span of the thread that fanned the work out.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::{num, string};

/// One finished span, in microseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans from any thread.
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Reserve an id for a span that opens now; close it with
    /// [`Recorder::close`].
    pub fn open(&self, name: &str, parent: Option<u64>) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            start: Instant::now(),
        }
    }

    pub fn close(&self, open: Open) -> f64 {
        let end = Instant::now();
        self.push(open.id, open.parent, open.name, open.start, end);
        (end - open.start).as_secs_f64()
    }

    /// Record a span whose bounds were taken elsewhere (tick callbacks).
    pub fn record(&self, name: &str, parent: Option<u64>, start: Instant, end: Instant) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name.to_string(), start, end);
    }

    /// Run `f` inside a span; returns its value and the span's seconds.
    pub fn scope<R>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(u64) -> R) -> (R, f64) {
        let open = self.open(name, parent);
        let id = open.id;
        let r = f(id);
        (r, self.close(open))
    }

    fn push(&self, id: u64, parent: Option<u64>, name: String, start: Instant, end: Instant) {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as f64 / 1e3;
        let span = Span { id, parent, name, start_us: us(start), end_us: us(end) };
        self.spans.lock().expect("span lock").push(span);
    }

    /// Every span, sorted by id, with its self time (its duration minus
    /// the time its direct children cover, floored at zero: children
    /// running in parallel on other threads can cover more than the
    /// parent's wall time).
    pub fn finish(&self) -> Vec<(Span, f64)> {
        let mut spans = self.spans.lock().expect("span lock").clone();
        spans.sort_by_key(|s| s.id);
        let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_us.entry(p).or_default() += s.dur_us();
            }
        }
        spans
            .into_iter()
            .map(|s| {
                let own = (s.dur_us() - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
                (s, own)
            })
            .collect()
    }
}

/// A span that has started and not yet ended.
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
}

/// Per span name, in name order: count, total and self milliseconds.
pub fn totals(spans: &[(Span, f64)]) -> Vec<(&str, u64, f64, f64)> {
    let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for (s, own) in spans {
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_us() / 1e3;
        e.2 += own / 1e3;
    }
    by_name.into_iter().map(|(name, (count, total, own))| (name, count, total, own)).collect()
}

/// The spans as JSON: every span with its self time, then [`totals`].
pub fn to_json(spans: &[(Span, f64)]) -> (String, String) {
    let rows: Vec<String> = spans
        .iter()
        .map(|(s, own)| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                string(&s.name),
                num(s.start_us),
                num(s.end_us),
                num(*own)
            )
        })
        .collect();
    let totals: Vec<String> = totals(spans)
        .iter()
        .map(|(name, count, total, own)| {
            format!(
                "{}: {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
                string(name),
                num(*total),
                num(*own)
            )
        })
        .collect();
    (
        format!("[\n    {}\n  ]", rows.join(",\n    ")),
        format!("{{\n    {}\n  }}", totals.join(",\n    ")),
    )
}
