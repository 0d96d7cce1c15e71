//! The benchmark's own spans: one around each public call it makes into the
//! engine, server or client.  Spans stay in memory and are written out when
//! the run ends; self time per span name is the span's duration minus the
//! part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Where traced runs write their span files (relative to the working
/// directory, which is the checkout root).
const TRACE_DIR: &str = ".bench_out";
/// Spans written per file; the rest are counted.
const SPANS_WRITTEN: usize = 50_000;

/// One recorded call.  `id` is shared by every span of one transaction or
/// request (0 for set-up and tear-down calls); `span` is unique in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub span: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span buffer.  A disabled tracer records nothing and never
/// reads the clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// High bits of every span id this tracer hands out.
    lane: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, lane: u64) -> Self {
        Self {
            on,
            epoch,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the run's epoch (0 when tracing is off).
    pub fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// A fresh span id, to be used as a parent before the span is recorded.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.lane << 40) | self.next
    }

    /// Record a span under a reserved id.
    pub fn record_as(
        &mut self,
        span: u64,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                span,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Record a span under a fresh id.
    pub fn record(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            let span = self.reserve();
            self.record_as(span, id, parent, name, start_ns, end_ns);
        }
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(id, parent, name, start, end);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Count, mean duration and mean self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub mean_us: f64,
    pub self_mean_us: f64,
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut sums: BTreeMap<&'static str, (u64, u128, u128)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.span)
            .map(|c| covered_ns(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let e = sums.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur as u128;
        e.2 += dur.saturating_sub(covered) as u128;
    }
    sums.into_iter()
        .map(|(name, (n, total, own))| {
            let per = |ns: u128| ns as f64 / n.max(1) as f64 / 1_000.0;
            (
                name,
                SelfTime {
                    count: n,
                    mean_us: per(total),
                    self_mean_us: per(own),
                },
            )
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// The span file: self-time table, then up to `limit` spans (set-up spans
/// first, as recorded).  Spans beyond the limit are counted, not written, so
/// a long traced window does not write hundreds of megabytes.
pub fn spans_json(workload: &str, seed: u64, spans: &[Span], limit: usize) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"span_count\":{},\"self_time\":{{",
        spans.len()
    );
    for (i, (name, t)) in self_times(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"count\":{},\"mean_us\":{:.3},\"self_mean_us\":{:.3}}}",
            t.count, t.mean_us, t.self_mean_us
        );
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.span, s.name, s.start_ns, s.end_ns
        );
    }
    let _ = write!(
        out,
        "],\"spans_omitted\":{}}}",
        spans.len().saturating_sub(limit)
    );
    out
}

/// Write a traced run's spans and the engine's own trace next to each
/// other; returns the paths written.
pub fn write_trace(
    workload: &str,
    seed: u64,
    spans: &[Span],
    engine_trace: &str,
) -> Result<String, String> {
    let dir = PathBuf::from(TRACE_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let spans_path = dir.join(format!("{workload}.spans.json"));
    let engine_path = dir.join(format!("{workload}.engine-trace.json"));
    std::fs::write(
        &spans_path,
        spans_json(workload, seed, spans, SPANS_WRITTEN),
    )
    .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    std::fs::write(&engine_path, engine_trace)
        .map_err(|e| format!("write {}: {e}", engine_path.display()))?;
    Ok(format!(
        "spans: {} ({} spans); engine trace: {}\n",
        spans_path.display(),
        spans.len(),
        engine_path.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id: 1,
            span,
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            span(1, None, "root", 0, 10_000),
            span(2, Some(1), "child", 1_000, 4_000),
            span(3, Some(1), "child", 3_000, 5_000),
            span(4, Some(1), "child", 9_000, 12_000),
        ];
        let t = self_times(&spans);
        // Children cover [1000,5000) and [9000,10000) of the root: 5 µs.
        assert_eq!(t["root"].count, 1);
        assert!((t["root"].self_mean_us - 5.0).abs() < 1e-9);
        assert_eq!(t["child"].count, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        assert_eq!(t.time(7, None, "x", || 3), 3);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn span_file_counts_omitted_spans() {
        let spans = [span(1, None, "a", 0, 1), span(2, None, "a", 1, 2)];
        let json = spans_json("w", 3, &spans, 1);
        assert!(json.contains("\"spans_omitted\":1"));
        assert!(json.contains("\"span_count\":2"));
    }
}
