//! Hierarchical wall-clock spans with a thread-safe global registry.
//!
//! A span measures one region of work. Guards nest per thread: a span
//! opened while another is active records a `parent/child` path, so
//! `train/epoch` opened inside `table3/STGCN` registers as
//! `table3/STGCN/train/epoch`. Finished spans land in a bounded global
//! ring buffer that experiment code queries with [`span_marker`] /
//! [`spans_since`] (e.g. Table III reads its per-epoch timings back
//! out of the registry instead of keeping its own `Instant` pairs).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::event::{Event, Value};

/// Upper bound on retained finished spans (oldest evicted first).
const REGISTRY_CAP: usize = 16_384;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Monotone sequence number (global, assigned at finish time).
    pub seq: u64,
    /// Span name as written at the call site, e.g. `train/epoch`.
    pub name: String,
    /// Full nesting path, e.g. `table3/train/epoch`.
    pub path: String,
    /// Nesting depth on the opening thread (0 = top level).
    pub depth: usize,
    /// Wall-clock duration.
    pub dur: Duration,
    /// Id of the thread that opened the span (see [`current_thread_id`]).
    pub thread: u64,
    /// Structured fields attached at the call site.
    pub fields: Vec<(String, Value)>,
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// Small dense id of the calling thread, unique for the process
/// lifetime. Used to read back only this thread's spans (e.g. Table III
/// timing must not absorb spans from concurrently running experiments).
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

struct SpanStore {
    records: VecDeque<SpanRecord>,
    next_seq: u64,
}

static STORE: Mutex<SpanStore> = Mutex::new(SpanStore { records: VecDeque::new(), next_seq: 0 });

thread_local! {
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Opens a span; prefer the [`span!`](crate::span!) macro.
pub fn enter(name: &str) -> SpanGuard {
    let (path, depth) = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = if stack.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", stack.join("/"), name)
        };
        let depth = stack.len();
        stack.push(name.to_string());
        (path, depth)
    });
    SpanGuard {
        name: name.to_string(),
        path,
        depth,
        start: Instant::now(),
        fields: Vec::new(),
        done: false,
    }
}

/// RAII guard for an open span. Records on drop; [`SpanGuard::finish`]
/// records early and hands back the measured duration.
///
/// Guards are intentionally `!Send`-in-spirit: moving one to another
/// thread breaks path nesting for both threads, so keep a guard on the
/// thread that opened it.
pub struct SpanGuard {
    name: String,
    path: String,
    depth: usize,
    start: Instant,
    fields: Vec<(String, Value)>,
    done: bool,
}

impl SpanGuard {
    /// Attaches a structured field.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Closes the span and returns its wall-clock duration.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let dur = self.start.elapsed();
        if self.done {
            return dur;
        }
        self.done = true;
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // pop our own frame (guards may close out of order under
            // mem::forget abuse; search from the top to stay robust)
            if let Some(pos) = stack.iter().rposition(|n| *n == self.name) {
                stack.truncate(pos);
            }
        });
        let record = {
            let mut store = STORE.lock().expect("span registry poisoned");
            let seq = store.next_seq;
            store.next_seq += 1;
            let record = SpanRecord {
                seq,
                name: std::mem::take(&mut self.name),
                path: std::mem::take(&mut self.path),
                depth: self.depth,
                dur,
                thread: current_thread_id(),
                fields: std::mem::take(&mut self.fields),
            };
            store.records.push_back(record.clone());
            if store.records.len() > REGISTRY_CAP {
                store.records.pop_front();
            }
            record
        };
        if crate::enabled() {
            let mut ev = Event::new("span")
                .with("name", record.name.as_str())
                .with("path", record.path.as_str())
                .with("depth", record.depth as u64)
                .with("dur_s", record.dur.as_secs_f64());
            for (k, v) in &record.fields {
                ev = ev.with(k, v.clone());
            }
            crate::sink::dispatch(&ev);
        }
        dur
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Opens a span with optional `key = value` fields:
/// `span!("train/epoch", model = name, epoch = i)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::span::enter($name)$(.field(stringify!($key), $value))+
    };
}

/// Current registry high-water mark; pass to [`spans_since`] to read
/// back only spans finished after this point.
pub fn span_marker() -> u64 {
    STORE.lock().expect("span registry poisoned").next_seq
}

/// All retained spans with `seq >= marker`, in finish order.
pub fn spans_since(marker: u64) -> Vec<SpanRecord> {
    let store = STORE.lock().expect("span registry poisoned");
    store.records.iter().filter(|r| r.seq >= marker).cloned().collect()
}

/// Aggregate timing stats for one span name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanStats {
    /// Number of finished spans matched.
    pub count: usize,
    /// Sum of durations.
    pub total: Duration,
    /// Mean duration (zero when `count == 0`).
    pub mean: Duration,
    /// Shortest matched span.
    pub min: Duration,
    /// Longest matched span.
    pub max: Duration,
}

/// Stats over retained spans whose **name** equals `name`, restricted
/// to spans finished at or after `marker`.
pub fn span_stats(name: &str, marker: u64) -> SpanStats {
    stats_where(|r| r.seq >= marker && r.name == name)
}

/// Like [`span_stats`] but restricted to spans the **calling thread**
/// opened — timing readouts stay correct when experiments run
/// concurrently in one process.
pub fn span_stats_local(name: &str, marker: u64) -> SpanStats {
    let thread = current_thread_id();
    stats_where(|r| r.seq >= marker && r.thread == thread && r.name == name)
}

fn stats_where(keep: impl Fn(&SpanRecord) -> bool) -> SpanStats {
    let store = STORE.lock().expect("span registry poisoned");
    let mut count = 0usize;
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    for r in store.records.iter().filter(|r| keep(r)) {
        count += 1;
        total += r.dur;
        min = min.min(r.dur);
        max = max.max(r.dur);
    }
    let mean = if count == 0 { Duration::ZERO } else { total / count as u32 };
    if count == 0 {
        min = Duration::ZERO;
    }
    SpanStats { count, total, mean, min, max }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_paths_and_orders_by_finish() {
        let marker = span_marker();
        {
            let outer = crate::span!("outer_test");
            {
                let _inner = crate::span!("inner_test", idx = 3u64);
            }
            outer.finish();
        }
        // Only this test's two spans: the sibling tests finish their own
        // `*_test` spans into the same global store concurrently.
        let spans: Vec<SpanRecord> = spans_since(marker)
            .into_iter()
            .filter(|s| s.name == "outer_test" || s.name == "inner_test")
            .collect();
        assert_eq!(spans.len(), 2);
        // inner finishes first
        assert_eq!(spans[0].name, "inner_test");
        assert_eq!(spans[0].path, "outer_test/inner_test");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].fields, vec![("idx".to_string(), Value::U64(3))]);
        assert_eq!(spans[1].name, "outer_test");
        assert_eq!(spans[1].path, "outer_test");
        assert_eq!(spans[1].depth, 0);
        assert!(spans[1].dur >= spans[0].dur);
    }

    #[test]
    fn finish_returns_duration_and_registers_once() {
        let marker = span_marker();
        let g = crate::span!("finish_once_test");
        let d = g.finish();
        assert!(d > Duration::ZERO);
        let spans: Vec<_> =
            spans_since(marker).into_iter().filter(|s| s.name == "finish_once_test").collect();
        assert_eq!(spans.len(), 1);
    }

    #[test]
    fn stats_aggregate() {
        let marker = span_marker();
        for _ in 0..3 {
            let _g = crate::span!("stats_test");
        }
        let s = span_stats("stats_test", marker);
        assert_eq!(s.count, 3);
        assert!(s.total >= s.max);
        assert!(s.min <= s.mean && s.mean <= s.max);
        assert_eq!(span_stats("no_such_span_test", marker).count, 0);
    }
}
