//! Span recorder for the traced run. Spans are recorded by the benchmark
//! around its calls into each layer, kept in memory, and written out as
//! JSONL when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: usize = usize::MAX;

struct Span {
    name: &'static str,
    job: u32,
    pass: u32,
    parent: usize,
    start_ns: u64,
    end_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    pass: u32,
    pass_start: usize,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            pass: 0,
            pass_start: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id for [`Recorder::close`] and children.
    pub fn open(&mut self, name: &'static str, job: u32, parent: usize) -> usize {
        let start_ns = self.now_ns();
        let pass = self.pass;
        self.spans.push(Span { name, job, pass, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Duration of a closed span, in nanoseconds.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Ends the current pass and returns its self time per span name, in
    /// nanoseconds: each span's duration minus that of its children.
    pub fn end_pass(&mut self) -> BTreeMap<&'static str, u64> {
        let range = self.pass_start..self.spans.len();
        let mut self_ns: Vec<u64> =
            self.spans[range.clone()].iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans[range.clone()] {
            if span.parent != NO_PARENT && span.parent >= range.start {
                let slot = &mut self_ns[span.parent - range.start];
                *slot = slot.saturating_sub(span.end_ns - span.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, ns) in self.spans[range].iter().zip(self_ns) {
            *by_name.entry(span.name).or_insert(0) += ns;
        }
        self.pass += 1;
        self.pass_start = self.spans.len();
        by_name
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"pass\":{},\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.pass, s.job, s.start_ns, s.end_ns
            );
        }
        out
    }
}
