//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! crates' public functions: name, start, end, the span that caused it,
//! and a request id shared by one request's spans. They stay in memory,
//! up to a cap, and are written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept in memory; later ones are only counted.
const SPAN_CAP: usize = 50_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    req: u64,
}

/// The span recorder. A disabled recorder keeps nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    overflow: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            overflow: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span whose interval the caller measured; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        req: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = u32::try_from(self.spans.len())
            .ok()
            .filter(|_| self.spans.len() < SPAN_CAP);
        if id.is_none() {
            self.overflow += 1;
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        id
    }

    /// Opens a parent span; children name the returned id.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, req: u64) -> Option<u32> {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    /// Ends a span opened with [`Recorder::open`] now.
    pub fn close(&mut self, id: Option<u32>) {
        let end_ns = self.ns(Instant::now());
        if let Some(span) = id.and_then(|id| self.spans.get_mut(id as usize)) {
            span.end_ns = end_ns;
        }
    }

    /// Writes the kept spans as JSON lines; returns how many were
    /// written and how many were over the cap.
    pub fn write(&self, path: &Path) -> std::io::Result<(usize, u64)> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()?;
        Ok((self.spans.len(), self.overflow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let id = r.open("p", None, 0);
        r.close(id);
        assert!(id.is_none());
        assert!(r.spans.is_empty());
    }

    #[test]
    fn children_name_their_parent_and_share_the_request() {
        let mut r = Recorder::new(true);
        let p = r.open("request", None, 7);
        let t0 = Instant::now();
        let child = r.record("call", t0, Instant::now(), p, 7);
        r.close(p);
        assert_eq!((p, child), (Some(0), Some(1)));
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].req, r.spans[0].req);
        assert!(
            r.spans[0].end_ns >= r.spans[1].end_ns,
            "the parent closes after its child"
        );
    }

    #[test]
    fn spans_past_the_cap_are_counted_not_kept() {
        let mut r = Recorder::new(true);
        let now = Instant::now();
        for _ in 0..SPAN_CAP + 3 {
            r.record("x", now, now, None, 0);
        }
        assert_eq!((r.spans.len(), r.overflow), (SPAN_CAP, 3));
    }
}
