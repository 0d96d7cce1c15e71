//! Instrumentation substrate for the PLP reproduction.
//!
//! The PLP paper (Pandis et al., VLDB 2011) argues about *communication
//! patterns*: which critical sections a transaction enters, how contended they
//! are, and how much wall-clock time is lost waiting on them.  Every figure in
//! the paper's evaluation is ultimately a view over three kinds of counters:
//!
//! * **Critical-section counters** per storage-manager component
//!   (Figure 1): lock manager, page latches, buffer pool, metadata/space
//!   management, log manager, transaction manager, message passing.
//! * **Page-latch counters** per page kind (Figures 2 and 3): index pages,
//!   heap pages, catalog/space-management pages.
//! * **Per-transaction time breakdowns** (Figures 6, 7 and 10): time spent
//!   acquiring latches, waiting on contended index/heap latches, waiting on
//!   SMOs, locks, the log, and everything else.
//!
//! This crate provides those counters.  Every other crate in the workspace
//! takes a [`StatsRegistry`] handle and reports events into it; the benchmark
//! harness snapshots registries and renders the paper's tables and figures.
//!
//! The counters are plain relaxed atomics: they are updated on hot paths by
//! many threads, and the absolute precision of a counter is irrelevant — the
//! paper reports counts per transaction aggregated over millions of events.
//!
//! Beyond counters, the observability layer adds latency *distributions*
//! ([`histogram`]), per-thread event *timelines* ([`trace`]) and a bounded
//! time-series *flight recorder* with panic-time autopsy dumps ([`recorder`]).
//! See `docs/observability.md` for the metric → recording site → export
//! catalogue. Building with the `obs-stub` feature compiles histogram and
//! trace recording to no-ops; the `fig_obs` bench compares the two builds to
//! keep the default-on overhead honest.

// Denied rather than forbidden: `trace::tsc` carries the one scoped
// exception, the RDTSC intrinsic behind the trace clock (no memory access).
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod breakdown;
pub mod export;
pub mod histogram;
pub mod model;
pub mod recorder;
pub mod report;
pub mod server;
pub mod slowlog;
pub mod stats;
pub mod sync;
pub mod timer;
pub mod trace;

pub use breakdown::{BreakdownSnapshot, TimeBreakdown, TimeBucket};

/// True unless the `obs-stub` feature compiled histogram/trace recording out.
/// Inlines to a constant, so callers in other crates can write
/// `if obs_enabled() { let t0 = now_nanos(); ... }` and have the whole block
/// fold away in stubbed builds without declaring the feature themselves.
#[inline(always)]
pub const fn obs_enabled() -> bool {
    cfg!(not(feature = "obs-stub"))
}
pub use export::{
    parse_exposition, prometheus_exposition, stats_json, validate_histogram_series, MetricSample,
};
pub use histogram::{Histogram, HistogramSnapshot, LatencySnapshot, LatencyStats};
pub use model::{model_check_snapshot, ModelCheckSnapshot};
pub use recorder::{
    dump_all_targets, register_flight_dump, tag_thread_engine, unregister_flight_dump,
    FlightRecorder, Sample,
};
pub use report::{format_table, json_is_valid, json_string_literal, Cell, Table};
pub use server::ObsServer;
pub use slowlog::{DecisionLog, DlbDecision, DlbOutcome, PhaseBreakdown, SlowLog, SlowTxn};
pub use stats::{
    ContentionClass, CsCategory, CsStats, CsStatsSnapshot, DlbStats, DlbStatsSnapshot, LatchStats,
    LatchStatsSnapshot, MsgStats, MsgStatsSnapshot, PageKind, ServerStats, ServerStatsSnapshot,
    StatsRegistry, StatsSnapshot, WalStats, WalStatsSnapshot,
};
pub use sync::{InstrumentedMutex, InstrumentedRwLock};
pub use timer::ScopedTimer;
pub use trace::{TraceEvent, TraceRecord, TraceRegistry, TraceRing, TraceScope};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn registry_roundtrip() {
        let reg = Arc::new(StatsRegistry::new());
        reg.cs().enter(CsCategory::LockMgr, false);
        reg.cs().enter(CsCategory::PageLatch, true);
        reg.latches().acquired(PageKind::Index, true);
        let snap = reg.snapshot();
        assert_eq!(snap.cs.entries(CsCategory::LockMgr), 1);
        assert_eq!(snap.cs.entries(CsCategory::PageLatch), 1);
        assert_eq!(snap.cs.contended(CsCategory::PageLatch), 1);
        assert_eq!(snap.latches.acquired(PageKind::Index), 1);
    }
}
