//! Bench-side spans: each records name, start, end, parent and request id.
//! Spans stay in memory and are written out when the run ends; a layer's
//! self time is its spans' duration minus what their child spans cover.
//! A disabled tracer records nothing, so untraced runs pay one branch.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of a recorded span (index into the span list).
pub type SpanId = usize;

/// One finished span, times in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Cloneable handle; clones record into the same span list.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

/// An open span; [`SpanGuard::end`] (or drop) closes it.
#[must_use = "a span measures until it is ended or dropped"]
pub struct SpanGuard {
    tracer: Tracer,
    id: Option<SpanId>,
}

impl SpanGuard {
    /// Id to pass as the parent of nested spans (`None` when disabled).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(inner), Some(id)) = (&self.tracer.inner, self.id) {
            let now = inner.epoch.elapsed().as_nanos() as u64;
            lock(&inner.spans)[id].end_ns = now;
        }
    }
}

fn lock(m: &Mutex<Vec<Span>>) -> std::sync::MutexGuard<'_, Vec<Span>> {
    m.lock().expect("a span holder panicked")
}

impl Tracer {
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    pub fn disabled() -> Self {
        Self { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span now.
    pub fn span(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard {
        let id = self.inner.as_ref().map(|inner| {
            let now = inner.epoch.elapsed().as_nanos() as u64;
            let mut spans = lock(&inner.spans);
            spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent,
                request: None,
            });
            spans.len() - 1
        });
        SpanGuard {
            tracer: self.clone(),
            id,
        }
    }

    /// Record a span whose interval was measured elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) {
        if let Some(inner) = &self.inner {
            let ns = |t: Instant| t.saturating_duration_since(inner.epoch).as_nanos() as u64;
            lock(&inner.spans).push(Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent,
                request,
            });
        }
    }

    /// Copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| lock(&inner.spans).clone())
    }

    /// Write the spans as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}

/// Durations in seconds of every span named `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}

/// Total self time in seconds of the spans named `name`: each span's
/// duration minus the part of its interval that its children cover
/// (overlapping children are counted once, and clipped to the parent).
pub fn self_time_s(spans: &[Span], name: &str) -> f64 {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut total = 0u64;
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        total += s.duration_ns().saturating_sub(covered);
    }
    total as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_and_clips_them() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children cover 10..40 (30 ns), a third
            // sticks out past the parent's end and counts only to 100.
            span("child", 10, 30, Some(0)),
            span("child", 20, 40, Some(0)),
            span("child", 90, 120, Some(0)),
            // A grandchild is the child's business, not the root's.
            span("leaf", 12, 18, Some(1)),
        ];
        assert!((self_time_s(&spans, "root") - 60e-9).abs() < 1e-15);
        // child 1: 20 - 6 (leaf); child 2: 20; child 3: 30.
        assert!((self_time_s(&spans, "child") - 64e-9).abs() < 1e-15);
        assert!((self_time_s(&spans, "leaf") - 6e-9).abs() < 1e-15);
    }

    #[test]
    fn guards_record_nested_spans_with_parents_and_requests() {
        let t = Tracer::enabled();
        let outer = t.span("outer", None);
        let inner = t.span("inner", outer.id());
        let started = Instant::now();
        t.record("request", started, Instant::now(), inner.id(), Some(7));
        inner.end();
        outer.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].parent, spans[2].request), (Some(1), Some(7)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(self_time_s(&spans, "outer") <= durations_s(&spans, "outer")[0]);

        let off = Tracer::disabled();
        assert!(off.span("x", None).id().is_none());
        assert!(off.spans().is_empty());
    }
}
