//! In-memory spans around the benchmark's calls into each layer.
//!
//! The traced run wraps every call it makes into the program — cluster
//! spawn, `Pipeline::submit_*`/`flush`/`try_recv`, the wait from submit to
//! completion, quiesce, shutdown, crash and recovery, `run_workload`,
//! `explore_with` — in a [`Span`]. Spans are held in memory and written
//! as JSONL when the run ends; nothing is written while timing.
//!
//! Spans live in the benchmark's own files on purpose: this change adds
//! no instrumentation inside the program (that is a later issue), so a
//! span's self time is what the call cost *as seen from outside*.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// One timed call (or wait) at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `handle.submit_acquire`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Identifier shared by all spans of one operation (0 = none).
    pub request: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call site, so the untraced run shares the traced run's code path.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Self::exit`]. Returns `None` when
    /// disabled.
    pub fn enter(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Close a span opened by [`Self::enter`].
    pub fn exit(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Record a span whose ends were stamped by the caller (waits that
    /// overlap other work cannot be bracketed by enter/exit).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, parent, 0);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line, self time included.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap each other (several
/// acquires in flight under one sweep) and may outlive the parent; the
/// covered part is the union of the child intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children.entry(p).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(kids) = children.get_mut(&(i as SpanId)) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children cover 10..50, a third 60..70.
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild only reduces its own parent.
            span("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 20, 10, 5]);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span("sweep", 100, 200, None),
            // Started before the parent and ended after it.
            span("wait", 50, 150, Some(0)),
            span("wait", 180, 400, Some(0)),
            // Entirely outside: covers nothing.
            span("wait", 300, 350, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 20);
    }

    #[test]
    fn self_times_sum_to_the_root_when_children_nest() {
        let spans = vec![
            span("root", 0, 1000, None),
            span("x", 0, 400, Some(0)),
            span("y", 400, 900, Some(0)),
            span("y1", 450, 650, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
        assert_eq!(selfs[2], 300);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", None, 1);
        t.exit(id);
        assert_eq!(t.record("y", 0, 1, None, 0), None);
        assert_eq!(t.time("z", None, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enter_and_exit_bracket_the_call() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", None, 9);
        let inner = t.enter("inner", outer, 9);
        t.exit(inner);
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[0].request, 9);
    }
}
