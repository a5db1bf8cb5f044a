//! The benchmark's own spans, recorded around calls into each layer.
//!
//! Each thread fills a [`SpanBuf`]; the buffers are merged into a
//! [`Trace`] when the thread is done. At exit the trace is written as
//! Chrome trace-event JSON together with a per-layer self-time table
//! (a span's duration minus the part of it its child spans cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Round number, request number or batch number.
    pub arg: u64,
}

/// Most spans one buffer keeps; later spans are counted, not stored.
const MAX_SPANS_PER_BUF: usize = 400_000;

/// A per-thread span buffer. Disabled buffers record nothing and hand
/// out id 0.
#[derive(Debug)]
pub struct SpanBuf {
    on: bool,
    t0: Instant,
    tid: u32,
    next: u64,
    spans: Vec<SpanRec>,
    dropped: u64,
}

impl SpanBuf {
    pub fn new(on: bool, t0: Instant, tid: u32) -> Self {
        Self { on, t0, tid, next: 0, spans: Vec::new(), dropped: 0 }
    }

    /// Records a finished span and returns its id (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        arg: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_reserved(id, name, parent, arg, start, end);
        id
    }

    /// Reserves an id for a span whose extent is only known later (a
    /// parent recorded after its children).
    pub fn reserve(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        (u64::from(self.tid) << 40) | self.next
    }

    /// Records a span under an id from [`Self::reserve`].
    pub fn record_reserved(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        arg: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        if self.spans.len() >= MAX_SPANS_PER_BUF {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(SpanRec {
            id,
            parent,
            name,
            tid: self.tid,
            start_ns: ns(start),
            end_ns: ns(end),
            arg,
        });
    }
}

/// Every span of a run, merged from the per-thread buffers.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<SpanRec>,
    dropped: u64,
}

impl Trace {
    pub fn absorb(&mut self, buf: SpanBuf) {
        self.spans.extend(buf.spans);
        self.dropped += buf.dropped;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"arg\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.arg
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }

    /// Per span name: count, total time and self time (total minus the
    /// union of its children's intervals), in milliseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            let e = table.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += total as f64 / 1e6;
            e.2 += total.saturating_sub(covered) as f64 / 1e6;
        }
        table
    }

    /// The self-time table as aligned text.
    pub fn self_time_text(&self) -> String {
        let mut out =
            format!("{:<24} {:>10} {:>14} {:>14}\n", "span", "count", "total_ms", "self_ms");
        for (name, (count, total, own)) in self.self_times() {
            let _ = writeln!(out, "{name:<24} {count:>10} {total:>14.3} {own:>14.3}");
        }
        out
    }
}
