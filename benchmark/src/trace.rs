//! In-memory spans recorded around calls into the program's public API.
//!
//! A span is a name, a start and end on one monotonic clock, and the index
//! of the span that was open when it began. Spans stay in memory while the
//! run measures and are written out once at the end, so recording costs two
//! clock reads and a push.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder. A disabled tracer still runs the closures, records
/// nothing, and costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.current();
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span { name, start_s, end_s: start_s, parent });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// The innermost open span, to parent spans recorded with
    /// [`Tracer::record`].
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Records a span measured elsewhere (another thread, or a clock read
    /// already taken) under `parent`; returns its index for children.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span { name, start_s: at(start), end_s: at(end), parent });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans' own time: duration minus the time covered by direct
    /// children, summed per name, in first-seen order.
    pub fn self_times_s(&self) -> Vec<(&'static str, f64)> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration_s();
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_time) {
            let own = (s.duration_s() - child).max(0.0);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// The spans as one JSON document (`{"spans": [...]}`).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                    s.name, s.start_s, s.end_s
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].duration_s() >= 0.002);
        let own: f64 = t.self_times_s().iter().map(|(_, s)| s).sum();
        assert!((own - spans[0].duration_s()).abs() < 1e-9, "self times partition the root");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert_eq!(t.record("y", Instant::now(), Instant::now(), None), None);
        assert!(t.spans().is_empty());
    }
}
