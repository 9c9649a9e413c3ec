//! Spans of a traced run: one per call into the program, recorded from the
//! benchmark's side of the call, held in memory and written out at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing group span, if any.
    pub parent: Option<u32>,
    /// `round << 32 | index`: the same request keeps its id at every depth
    /// of the ladder, so its cost can be followed down the layers.
    pub request: u64,
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    group: Option<u32>,
    round: u64,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            group: None,
            round: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// Open a group span: spans recorded until [`SpanLog::close`] are its
    /// children. `round` numbers the requests recorded inside it.
    pub fn open(&mut self, name: &'static str, round: usize) {
        let now = self.ns(Instant::now());
        self.round = round as u64;
        self.group = Some(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: None,
            request: self.round << 32,
        });
    }

    pub fn close(&mut self) {
        if let Some(group) = self.group.take() {
            self.spans[group as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Record one finished call.
    pub fn record(&mut self, name: &'static str, index: u64, t0: Instant, t1: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
            parent: self.group,
            request: self.round << 32 | index,
        };
        self.spans.push(span);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_point_at_their_group_and_share_request_ids_across_groups() {
        let mut log = SpanLog::new();
        let t = Instant::now();
        log.open("ladder.engine", 2);
        log.record("engine.recommend", 7, t, t);
        log.close();
        log.open("ladder.http", 2);
        log.record("http.recommend", 7, t, t);
        log.close();
        log.record("loose", 1, t, t);
        assert_eq!(log.len(), 5);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[3].parent, Some(2));
        assert_eq!(log.spans[4].parent, None);
        assert_eq!(log.spans[1].request, log.spans[3].request);
        assert_eq!(log.spans[1].request, 2 << 32 | 7);
        assert!(log.spans[0].end_ns >= log.spans[0].start_ns);
    }
}
