//! The benchmark's own spans around each call into a layer's public
//! function: name, start, end, parent and request id. They stay in
//! memory during the run and are written out when it ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use cachegraph_obs::Json;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.function`, e.g. `fw.recursive`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Operation the call belongs to (0 for set-up probes).
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An append-only span log. Each thread owns one; [`absorb`] merges
/// them at the end, so recording never takes a lock.
///
/// [`absorb`]: Recorder::absorb
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing against `epoch` (share one epoch across
    /// threads so merged spans line up).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Record a span that ran from `start` to `end`.
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            request,
        });
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Append another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, Json::from);
            let line = Json::obj()
                .field("id", id)
                .field("name", s.name)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("parent", parent)
                .field("request", s.request);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.time("x.one", None, 1, || ());
        let mut b = Recorder::new(epoch);
        let root = b.open("y.root", None, 2);
        b.time("y.child", Some(root), 2, || ());
        b.close(root);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.durations_ms("y.child").len(), 1);
        assert!(a.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
