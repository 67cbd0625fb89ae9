//! In-memory span tracer for the traced run.
//!
//! A span records its name, start, end, parent span and run (seed) id, plus
//! the two counts measured at the same boundary: the work done inside the
//! span and the occupied-state count `q_occ` seen when it closed.
//! Spans are kept in memory and written out as JSON lines when the
//! benchmark ends.  A span's *self time* is its duration minus the time its
//! direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.  `count` is the work done inside it:
/// interactions for a `run(chunk)` call, calls for a probe.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
    pub count: u64,
    pub q_occ: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; spans nest strictly (one thread, stack discipline).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub spans: u64,
    pub self_ns: u64,
    pub duration_ns: u64,
    pub count: u64,
    pub q_occ_sum: u64,
    pub q_occ_max: u64,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("trace clock fits in u64 ns")
    }

    /// Tag every span opened from now on with run id `run` (the seed).
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
            count: 0,
            q_occ: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span, recording
    /// the work it did and the occupancy at its end.
    pub fn close(&mut self, id: usize, count: u64, q_occ: u64) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
        span.q_occ = q_occ;
    }

    /// Rename span `id`, for a span whose layer shows only once it ends.
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Run `f` inside a span named `name` that records no counts.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id, 0, 0);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.duration_ns();
            }
        }
        own
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(own) {
            let t = out.entry(span.name).or_default();
            t.spans += 1;
            t.self_ns += self_ns;
            t.duration_ns += span.duration_ns();
            t.count += span.count;
            t.q_occ_sum += span.q_occ;
            t.q_occ_max = t.q_occ_max.max(span.q_occ);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}, \"count\": {}, \"q_occ\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run, s.count, s.q_occ
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        let root = t.open("run");
        let child = t.open("batched.run");
        let grandchild = t.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(grandchild, 0, 0);
        t.close(child, 5, 3);
        t.close(root, 0, 0);
        let own = t.self_ns();
        let spans = t.spans();
        assert_eq!(
            own[root] + own[child] + own[grandchild],
            spans[root].duration_ns()
        );
        assert_eq!(
            own[child],
            spans[child].duration_ns() - spans[grandchild].duration_ns()
        );
        let totals = t.totals();
        assert_eq!(totals["batched.run"].count, 5);
        assert_eq!(totals["batched.run"].q_occ_max, 3);
    }
}
