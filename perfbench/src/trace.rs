//! In-memory spans recorded around the benchmark's calls into each
//! layer. Spans live in a `Vec` until the run ends; a disabled tracer
//! records nothing and reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `"farm.step"`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the call served (`u64::MAX` when none).
    pub job: u64,
}

/// Calls and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations minus the time their children cover, ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per call, µs (0 without calls).
    #[must_use]
    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span nested in the innermost open one.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let i = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(i);
        let r = f(self);
        self.open.pop();
        self.spans[i].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    /// Per-name call counts and self times.
    #[must_use]
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// The spans as a JSON array.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"job\": {}}}{}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                parent,
                sp.job,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        s.push(']');
        s
    }
}

/// Per-name call counts and self times of `spans`. A span's
/// self time is its duration minus the part of it that the union of
/// its children's intervals covers.
#[must_use]
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, sp) in spans.iter().enumerate() {
        if let Some(p) = sp.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, sp) in spans.iter().enumerate() {
        let dur = sp.end_ns - sp.start_ns;
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(sp.start_ns),
                    spans[c].end_ns.min(sp.end_ns),
                )
            })
            .filter(|(a, b)| a < b)
            .collect();
        iv.sort_unstable();
        let mut covered = 0;
        let mut reach = sp.start_ns;
        for (a, b) in iv {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let e = out.entry(sp.name).or_default();
        e.calls += 1;
        e.self_ns += dur - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("step", 0, 100, None),
            span("sim", 10, 40, Some(0)),
            // Overlaps the first child: 30..50 adds only 40..50.
            span("sim", 30, 50, Some(0)),
            // Leaks past the parent's end: clipped to 90..100.
            span("read", 90, 120, Some(0)),
            span("step", 200, 210, None),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["step"].calls, 2);
        assert_eq!(t["step"].self_ns, 100 - 40 - 10 + 10);
        assert_eq!(t["sim"].self_ns, 50);
        assert_eq!(t["read"].self_ns, 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("validate", 7, |_| 42);
        assert_eq!(v, 42);
        assert!(t.spans.is_empty());
        let mut t = Tracer::new(true);
        t.span("outer", 1, |t| t.span("inner", 1, |_| ()));
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }
}
