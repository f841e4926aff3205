//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into the program goes through
//! [`Tracer::span`], which always returns the call's wall time. With
//! recording on, it also keeps a span (name, start, end, parent,
//! request id); the spans stay in memory until [`Tracer::write_json`]
//! at the end of the run.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The closed-loop iteration (request) the span belongs to.
    pub req: u64,
}

pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Runs `f`, returning its result and wall time in seconds; records a
    /// span around it when recording is on.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let idx = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start: self.nanos(start),
                end: 0,
                parent: self.open.last().copied(),
                req,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = idx {
            self.open.pop();
            self.spans[i].end = self.nanos(end);
        }
        (out, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn nanos(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// Writes the spans with their self times, plus `header` lines of
    /// provenance, as one JSON document.
    pub fn write_json(&self, path: &Path, header: &[(&str, String)]) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = String::from("{\n");
        for (k, v) in header {
            let _ = writeln!(out, "  \"{k}\": \"{}\",", v.replace(['"', '\\'], "'"));
        }
        out.push_str("  \"spans\": [\n");
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {}, \"self_s\": {own:.9}}}",
                s.name, s.start, s.end, s.req
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        std::fs::write(path, out)
    }
}

/// Each span's self time in seconds: its duration minus the part of its
/// interval covered by its direct children (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start - covered) as f64 * 1e-9
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        let own: Vec<u64> = self_times(&spans)
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(own, vec![50, 10, 20, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        let root = (self_times(&spans)[0] * 1e9).round() as u64;
        assert_eq!(root, 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_and_times_without_recording() {
        let mut t = Tracer::new(true);
        let (v, outer) = t.span("outer", 7, |t| t.span("inner", 7, |_| 41).0 + 1);
        assert_eq!(v, 42);
        assert!(outer >= 0.0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 7);
        assert!(t.spans()[0].start <= t.spans()[1].start && t.spans()[1].end <= t.spans()[0].end);

        let mut off = Tracer::new(false);
        let (v, _) = off.span("x", 0, |_| 1);
        assert_eq!(v, 1);
        assert!(off.spans().is_empty());
    }
}
