//! What every workload shares: set-up, client tallies, measured windows
//! between two ledger readings, and the metrics and report derived from
//! them.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use plp_core::Engine;

use crate::ledger::{self, Attribution, Ledger};
use crate::report::{median, peak_rss_mb, quantile, ratio, Metrics};
use crate::trace::{self, Span};
use crate::{Outcome, Run};

/// Client threads: at most the 2 cores the benchmark is sized for.
pub const CLIENTS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The windows of a run, also the phase tags of [`stream_seed`] and of
/// span lanes.
pub const WARMUP_PHASE: u64 = 1;
pub const MEASURE_PHASE: u64 = 2;
pub const TRACED_PHASE: u64 = 3;

/// Problems kept verbatim per tally; the rest are only counted.
const PROBLEMS_KEPT: usize = 10;
/// Equal segments a measured window is cut into; the end-to-end metrics
/// are medians over them, so a slow stretch of the host shorter than half
/// the window does not move them.
const SEGMENTS: usize = 10;

/// What one client thread saw.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Committed transactions, or completed requests on the wire.
    pub completed: u64,
    /// Frames put on the wire (wire only).
    pub frames_sent: u64,
    /// Client-observed latency of every transaction or request, in ns.
    pub lat_ns: Vec<u64>,
    /// When each of them finished, in ns since the window started
    /// (index-aligned with `lat_ns` until [`Window::run`] sorts `lat_ns`).
    pub done_ns: Vec<u64>,
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

impl Tally {
    /// Count a failed operation or check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < PROBLEMS_KEPT {
            self.problems.push(problem);
        }
    }

    /// Record one finished transaction or request issued at `sent`.
    pub fn sample(&mut self, origin: Instant, sent: Instant, done: Instant) {
        self.lat_ns.push((done - sent).as_nanos() as u64);
        self.done_ns.push((done - origin).as_nanos() as u64);
    }

    /// Merge client tallies; `lat_ns` is left unsorted and still aligned
    /// with `done_ns`.
    pub fn merge(mut tallies: Vec<Tally>) -> Tally {
        let mut all = tallies.pop().unwrap_or_default();
        for t in tallies {
            all.attempted += t.attempted;
            all.failed += t.failed;
            all.completed += t.completed;
            all.frames_sent += t.frames_sent;
            all.lat_ns.extend(t.lat_ns);
            all.done_ns.extend(t.done_ns);
            all.problems.extend(t.problems);
            all.spans.extend(t.spans);
        }
        all.problems.truncate(PROBLEMS_KEPT);
        all
    }
}

/// Throughput and latency quantiles of one segment of a window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Segment {
    pub per_s: f64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

/// Cut the samples into [`SEGMENTS`] equal spans of finish time up to the
/// last finish, and measure each.
pub fn segments(lat_ns: &[u64], done_ns: &[u64]) -> Vec<Segment> {
    let span = done_ns.iter().copied().max().unwrap_or(0).max(1);
    let mut parts = vec![Vec::new(); SEGMENTS];
    for (&lat, &done) in lat_ns.iter().zip(done_ns) {
        let k = (done as u128 * SEGMENTS as u128 / span as u128) as usize;
        parts[k.min(SEGMENTS - 1)].push(lat);
    }
    let seconds = span as f64 / 1e9 / SEGMENTS as f64;
    parts
        .into_iter()
        .map(|mut lat| {
            lat.sort_unstable();
            Segment {
                per_s: lat.len() as f64 / seconds,
                p50_ns: quantile(&lat, 0.50),
                p95_ns: quantile(&lat, 0.95),
                p99_ns: quantile(&lat, 0.99),
            }
        })
        .collect()
}

/// One measured window: client tallies plus the ledger delta around it.
/// Both ledger readings are taken with every client stopped, so the engine
/// is quiesced and the delta covers exactly the window's work.
pub struct Window {
    pub elapsed: Duration,
    /// Merged tallies; `lat_ns` sorted ascending.
    pub tally: Tally,
    pub segments: Vec<Segment>,
    pub ledger: Ledger,
}

impl Window {
    /// Run one closed-loop client thread per element of `clients`; each
    /// gets its index, its element and the window's start, and returns its
    /// tally plus whatever else the workload collects.  `settle` runs after
    /// the clients stop and before the closing ledger reading.
    pub fn run<C: Send, X: Send>(
        engine: &Engine,
        clients: Vec<C>,
        settle: impl FnOnce(),
        client: impl Fn(usize, C, Instant) -> (Tally, X) + Sync,
    ) -> (Window, Vec<X>) {
        let before = Ledger::read(engine);
        let start = Instant::now();
        let (tallies, extras): (Vec<Tally>, Vec<X>) = std::thread::scope(|scope| {
            let client = &client;
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(i, c)| scope.spawn(move || client(i, c, start)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .unzip()
        });
        let elapsed = start.elapsed();
        settle();
        let ledger = Ledger::read(engine).since(&before);
        let mut tally = Tally::merge(tallies);
        let segments = segments(&tally.lat_ns, &tally.done_ns);
        tally.lat_ns.sort_unstable();
        (
            Window {
                elapsed,
                tally,
                segments,
                ledger,
            },
            extras,
        )
    }

    /// One report line: length, counts, whole-window and per-segment rates.
    pub fn describe(&self) -> String {
        let rates: Vec<f64> = self.segments.iter().map(|s| s.per_s.round()).collect();
        format!(
            "measured window: {:.3} s, {} attempted, {} completed ({:.0}/s), latency samples \
             n={}\n  per-segment rates (1/s): {rates:?}\n",
            self.elapsed.as_secs_f64(),
            self.tally.attempted,
            self.tally.completed,
            self.throughput(),
            self.tally.lat_ns.len()
        )
    }

    pub fn throughput(&self) -> f64 {
        ratio(self.tally.completed as f64, self.elapsed.as_secs_f64())
    }
}

/// The end-to-end metrics of one run: throughput and latency quantiles are
/// medians over the measured window's segments.
pub fn end_to_end(window: &Window, setup_s: &[f64], peak_rss_mb: f64) -> Metrics {
    let over = |f: fn(&Segment) -> f64| median(&window.segments.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.set("throughput_tps", "1/s", over(|s| s.per_s));
    m.set("latency_p50_us", "us", over(|s| s.p50_ns as f64 / 1_000.0));
    m.set("latency_p95_us", "us", over(|s| s.p95_ns as f64 / 1_000.0));
    m.set("latency_p99_us", "us", over(|s| s.p99_ns as f64 / 1_000.0));
    m.set("setup_s", "s", median(setup_s));
    m.set("peak_rss_mb", "MB", peak_rss_mb);
    m
}

/// Set up `setup` once per repeat (once in a traced run), tearing the
/// previous instance down first so only one engine is alive at a time (the
/// channel counters are process-global).  Returns the last instance and
/// every set-up time.
pub fn set_up<R>(
    run: &Run,
    mut setup: impl FnMut(usize) -> Result<R, String>,
    mut teardown: impl FnMut(R) -> Result<(), String>,
) -> Result<(R, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut rig = None;
    for k in 0..if run.trace { 1 } else { SETUP_REPEATS } {
        if let Some(old) = rig.take() {
            teardown(old)?;
        }
        let t0 = Instant::now();
        rig = Some(setup(k)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    Ok((rig.expect("at least one set-up"), setup_s))
}

/// Run the warm-up, the measured and (with `--trace 1`) the traced window,
/// each made by `window(phase, traced)` and checked by `check`.  Every
/// failed check lands in `out`; the measured and traced windows are
/// counted in `out` and returned, in that order.  Warm-up failures fail
/// the run but are not counted.
pub fn windows(
    run: &Run,
    out: &mut Outcome,
    mut window: impl FnMut(u64, bool) -> Window,
    check: impl Fn(&Window) -> Result<(), String>,
) -> Vec<Window> {
    let mut kept = Vec::new();
    for (phase, what) in [
        (WARMUP_PHASE, "warm-up"),
        (MEASURE_PHASE, "measured"),
        (TRACED_PHASE, "traced"),
    ] {
        let traced = phase == TRACED_PHASE;
        if traced && !run.trace {
            continue;
        }
        let w = window(phase, traced);
        out.problems.extend(w.tally.problems.iter().cloned());
        if let Err(e) = check(&w) {
            out.problems.push(format!("{what} window: {e}"));
        }
        if phase == WARMUP_PHASE {
            if w.tally.failed > 0 {
                out.problems
                    .push(format!("warm-up: {} failed operations", w.tally.failed));
            }
        } else {
            out.attempted += w.tally.attempted;
            out.failed += w.tally.failed;
            kept.push(w);
        }
    }
    kept
}

/// The measured window's end-to-end and ledger metrics, and the head of
/// the report.  `wire` adds the front-end split.
pub fn report_measured(
    out: &mut Outcome,
    measured: &Window,
    setup_s: &[f64],
    wire: bool,
) -> Result<(), String> {
    out.metrics = end_to_end(measured, setup_s, peak_rss_mb()?);
    let attribution = Attribution::of(&measured.ledger, &measured.tally.lat_ns, wire);
    ledger::layer_metrics(&measured.ledger, &attribution, &mut out.metrics);
    let m = &mut out.metrics;
    m.set(
        "failure_ratio",
        "ratio",
        ratio(out.failed as f64, out.attempted as f64),
    );
    m.set(
        "bench.latency_samples",
        "count",
        measured.tally.lat_ns.len() as f64,
    );
    if wire {
        let server_p50 = measured.ledger.latency.server_request.p50() as f64 / 1_000.0;
        let client_p50 = quantile(&measured.tally.lat_ns, 0.5) as f64 / 1_000.0;
        m.set("wire.frontend_p50_us", "us", client_p50 - server_p50);
    }
    out.text = format!("setup_s samples: {setup_s:.3?}\n");
    out.text.push_str(&measured.describe());
    out.text.push_str(&attribution.table());
    Ok(())
}

/// The traced window's span metrics and self-time table; writes the spans
/// (set-up spans first) next to the engine's own trace.  `root` names the
/// per-transaction or per-request root span.
pub fn report_traced(
    out: &mut Outcome,
    workload: &str,
    run: &Run,
    (untraced, traced): (&Window, &Window),
    root: &str,
    mut spans: Vec<Span>,
    engine_trace: &str,
) -> Result<(), String> {
    let m = &mut out.metrics;
    m.set(
        "bench.trace_overhead_ratio",
        "ratio",
        ratio(untraced.throughput(), traced.throughput()),
    );
    let times = trace::self_times(&traced.tally.spans);
    if let Some(t) = times.get(root) {
        m.set("bench.root_self_us", "us", t.self_mean_us);
    }
    // Client-side wire calls, per request (absent, so 0, in process).
    let total_us = |name: &str| times.get(name).map_or(0.0, |t| t.mean_us * t.count as f64);
    let per = traced.tally.attempted.max(1) as f64;
    m.set(
        "client.send_us",
        "us",
        (total_us("Connection::send") + total_us("Connection::flush")) / per,
    );
    m.set(
        "client.recv_wait_us",
        "us",
        total_us("Connection::recv") / per,
    );
    let text = &mut out.text;
    text.push_str("traced window: span self time (mean us)\n");
    for (name, t) in &times {
        let _ = writeln!(
            text,
            "  {name:<24} n={:<9} mean={:>9.2} self={:>9.2}",
            t.count, t.mean_us, t.self_mean_us
        );
    }
    spans.extend_from_slice(&traced.tally.spans);
    text.push_str(&trace::write_trace(
        workload,
        run.seed,
        &spans,
        engine_trace,
    )?);
    Ok(())
}

/// A per-thread RNG seed derived from the run seed, a phase tag and the
/// client index (splitmix64 finaliser), so the same `--seed` always yields
/// the same per-client input streams.
pub fn stream_seed(seed: u64, phase: u64, client: usize) -> u64 {
    let mut z = seed
        .wrapping_add(phase.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((client as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counts_and_sorts_latencies() {
        let a = Tally {
            attempted: 2,
            completed: 2,
            lat_ns: vec![5, 1],
            ..Tally::default()
        };
        let mut b = Tally {
            attempted: 1,
            lat_ns: vec![3],
            ..Tally::default()
        };
        b.fail("x".into());
        let all = Tally::merge(vec![a, b]);
        assert_eq!((all.attempted, all.failed, all.completed), (3, 1, 2));
        let mut lat = all.lat_ns.clone();
        lat.sort_unstable();
        assert_eq!(lat, vec![1, 3, 5]);
        assert_eq!(all.problems, vec!["x".to_string()]);
    }

    #[test]
    fn segments_split_by_finish_time() {
        // 10 samples in each of the first 9 tenths of a 1 s span, 20 in the
        // last; each tenth has latency (k + 1) µs.
        let (mut lat, mut done) = (Vec::new(), Vec::new());
        for k in 0..SEGMENTS as u64 {
            for j in 0..if k == 9 { 20 } else { 10 } {
                lat.push((k + 1) * 1_000);
                done.push(k * 100_000_000 + j * 1_000_000 + 1);
            }
        }
        *done.last_mut().unwrap() = 1_000_000_000;
        let s = segments(&lat, &done);
        assert_eq!(s.len(), SEGMENTS);
        assert!((s[0].per_s - 100.0).abs() < 1e-9, "{:?}", s[0]);
        assert!((s[9].per_s - 200.0).abs() < 1e-9, "{:?}", s[9]);
        assert_eq!((s[3].p50_ns, s[3].p99_ns), (4_000, 4_000));
    }

    #[test]
    fn stream_seeds_differ_by_phase_and_client() {
        let s = stream_seed(1, 0, 0);
        assert_eq!(s, stream_seed(1, 0, 0));
        assert_ne!(s, stream_seed(1, 1, 0));
        assert_ne!(s, stream_seed(1, 0, 1));
        assert_ne!(s, stream_seed(2, 0, 0));
    }
}
