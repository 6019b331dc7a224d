//! Spans recorded by the benchmark around each public call it makes into
//! the stack: name, start, end, parent and an op id shared by the spans of
//! one operation. Each thread appends to its own [`SpanLog`] in memory;
//! the logs are merged and written out when the run ends, and layer self
//! time (a span's duration minus the part its children cover) is computed
//! from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer; a disabled log records nothing, and an
/// enabled one records the spans of every `every`-th op (by op id), so a
/// traced phase of millions of ops keeps a bounded, evenly spread sample.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    every: u64,
    epoch: Instant,
    id_base: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for thread `thread` of a run whose clock starts at `epoch`,
    /// keeping every `every`-th op.
    pub fn new((on, every): (bool, u64), epoch: Instant, thread: u32) -> SpanLog {
        SpanLog {
            on,
            every: every.max(1),
            epoch,
            id_base: u64::from(thread) << 40,
            spans: Vec::new(),
        }
    }

    /// Whether spans of `op` are kept.
    pub fn keeps(&self, op: u64) -> bool {
        self.on && op.is_multiple_of(self.every)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` as `name` under `parent`, returning its id
    /// (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.keeps(op) {
            return None;
        }
        let id = self.id_base + self.spans.len() as u64;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        Some(id)
    }

    /// Records a parent span whose children are recorded afterwards with
    /// the returned id (spans are plain intervals, so order is free).
    pub fn root(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        self.record(name, op, None, start, end)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals clipped to it, summed over spans of that name.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |c| {
            c.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in c.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered
        });
        *out.entry(s.name).or_default() += dur.saturating_sub(covered);
    }
    out
}

/// Self time summed by layer, the span-name prefix before the first `.`
/// (`op` spans belong to the benchmark itself).
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (name, ns) in self_time_ns(spans) {
        let layer = match name.split_once('.') {
            Some((l, _)) => l.to_string(),
            None => "bench".to_string(),
        };
        *out.entry(layer).or_default() += ns;
    }
    out
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
        .collect()
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// On any write failure.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, us: u64) -> Instant {
        epoch + Duration::from_micros(us)
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new((false, 1), Instant::now(), 0);
        assert!(log.root("op", 1, Instant::now(), Instant::now()).is_none());
        assert!(log.into_spans().is_empty());
        let mut sampled = SpanLog::new((true, 4), Instant::now(), 0);
        for op in 0..10 {
            sampled.root("op", op, Instant::now(), Instant::now());
        }
        let ops: Vec<u64> = sampled.into_spans().iter().map(|s| s.op).collect();
        assert_eq!(ops, vec![0, 4, 8]);
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let e = Instant::now();
        let mut log = SpanLog::new((true, 1), e, 3);
        let root = log.root("op", 9, at(e, 0), at(e, 100));
        // Overlapping children 10..40 and 30..50 cover 40 µs; one child
        // sticks out past the parent and is clipped at 100.
        log.record("serve.submit", 9, root, at(e, 10), at(e, 40));
        log.record("serve.wait", 9, root, at(e, 30), at(e, 50));
        log.record("serve.wait", 9, root, at(e, 90), at(e, 120));
        let spans = log.into_spans();
        assert_eq!(spans[0].id, 3 << 40);
        assert!(spans.iter().all(|s| s.op == 9));
        let st = self_time_ns(&spans);
        assert_eq!(st["op"], 50_000);
        assert_eq!(st["serve.submit"], 30_000);
        assert_eq!(st["serve.wait"], 50_000);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["bench"], 50_000);
        assert_eq!(layers["serve"], 80_000);
        assert_eq!(durations_us(&spans, "serve.wait"), vec![20.0, 30.0]);
    }
}
