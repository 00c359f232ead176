//! Spans around the benchmark's own calls into each layer.
//!
//! Spans stay in memory and are written out when the run ends. The
//! traced pass has one client, so spans nest strictly and a stack gives
//! each span its parent. Spans inside the engine or the server are a
//! later change (ROADMAP "observability that explains").

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span; `None` for the root.
    parent: Option<usize>,
    /// The client operation this span belongs to; 0 for maintenance.
    op_id: u64,
}

/// Totals of every span sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn mean_us(&self) -> f64 {
        crate::measure::ratio(self.total_ns as f64 / 1e3, self.count as f64)
    }
}

/// Records spans when enabled and only runs the closure when not, so
/// the same pass can be timed with tracing on and off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `body` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        body: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return body(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(index);
        let out = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals, with self time = duration − children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            let duration = span.end_ns - span.start_ns;
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration - children;
        }
        totals
    }

    /// The trace file: a summary per span name, then every span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"summary\":{{"
        );
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.span("root", 0, |t| {
            for op in 1..=3 {
                t.span("op", op, |t| {
                    t.span("inner", op, |_| std::hint::black_box(op * 2));
                });
            }
        });
        let totals = t.totals();
        assert_eq!(totals["op"].count, 3);
        assert_eq!(totals["inner"].count, 3);
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, totals["root"].total_ns);
        assert!(t.to_json("w", 1).contains("\"parent\":null"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("root", 0, |_| 7), 7);
        assert_eq!(t.span_count(), 0);
    }
}
