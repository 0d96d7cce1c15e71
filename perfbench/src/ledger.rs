//! The engine's own ledger, read as window deltas: the stats registry, the
//! latency histograms and the log manager's append counters.  Per-layer
//! metrics, the phase reconciliation and the per-transaction attribution
//! are all derived from one window's delta.

use std::fmt::Write as _;

use plp_core::Engine;
use plp_instrument::{CsCategory, HistogramSnapshot, LatencySnapshot, PageKind, StatsSnapshot};

use crate::report::{ratio, Metrics};

/// One reading of every engine counter the benchmark uses.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub stats: StatsSnapshot,
    pub latency: LatencySnapshot,
    pub log_records: u64,
    pub log_bytes: u64,
}

impl Ledger {
    /// Read the counters.  The channel layer's slow-path counters are
    /// process-global, so they are folded into this engine's registry first
    /// (which is also why only one engine is alive at a time).
    pub fn read(engine: &Engine) -> Ledger {
        let db = engine.db();
        db.sync_channel_metrics();
        Ledger {
            stats: db.stats().snapshot(),
            latency: db.stats().latency().snapshot(),
            log_records: db.log_manager().record_count(),
            log_bytes: db.log_manager().byte_count(),
        }
    }

    /// Counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        Ledger {
            stats: self.stats.delta(&earlier.stats),
            latency: self.latency.delta(&earlier.latency),
            log_records: self.log_records.saturating_sub(earlier.log_records),
            log_bytes: self.log_bytes.saturating_sub(earlier.log_bytes),
        }
    }

    /// Transactions that finished (committed or aborted) in the window.
    pub fn txns(&self) -> u64 {
        self.stats.committed + self.stats.aborted
    }

    /// Sum of the four round-trip phase histograms.
    pub fn phase_sum_ns(&self) -> u64 {
        let l = &self.latency;
        l.phase_queue_wait.sum
            + l.phase_lock_wait.sum
            + l.phase_execute.sum
            + l.phase_reply_wait.sum
    }
}

/// The ledger checks every workload makes on its quiesced window delta:
/// - the documented invariant that the four round-trip phases add up to the
///   action round trips, exactly;
/// - every transaction the clients ran is counted once by the engine.
pub fn reconcile(delta: &Ledger, client_txns: u64) -> Result<(), String> {
    let roundtrip = delta.latency.action_roundtrip.sum;
    let phases = delta.phase_sum_ns();
    if phases != roundtrip {
        return Err(format!(
            "ledger: phase_queue_wait + phase_lock_wait + phase_execute + phase_reply_wait \
             sums to {phases} ns but action_roundtrip sums to {roundtrip} ns"
        ));
    }
    if delta.txns() != client_txns {
        return Err(format!(
            "ledger: engine counted {} committed + {} aborted transactions, clients ran {client_txns}",
            delta.stats.committed, delta.stats.aborted
        ));
    }
    Ok(())
}

/// Mean per-transaction split of the client-observed latency, in µs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution {
    pub client_us: f64,
    /// Client latency minus server-side request time (wire only).
    pub frontend_us: Option<f64>,
    pub queue_us: f64,
    pub lock_us: f64,
    pub exec_us: f64,
    pub reply_us: f64,
    pub commit_wait_us: f64,
    /// Transaction latency not covered by the phases or the commit wait:
    /// begin, routing, commit bookkeeping, inline execution on the
    /// conventional design.
    pub unattributed_us: f64,
}

impl Attribution {
    /// `client_ns` are the client-observed latencies of the window's
    /// transactions or requests; `wire` adds the front-end split from the
    /// server's `server_request` histogram.
    pub fn of(delta: &Ledger, client_ns: &[u64], wire: bool) -> Attribution {
        let n = client_ns.len().max(1) as f64;
        let client_us = client_ns.iter().map(|&v| v as f64).sum::<f64>() / n / 1_000.0;
        let txns = delta.txns().max(1) as f64;
        let per_txn = |h: &HistogramSnapshot| h.sum as f64 / txns / 1_000.0;
        let l = &delta.latency;
        let server_us = wire.then(|| l.server_request.mean() / 1_000.0);
        let (queue_us, lock_us, exec_us, reply_us) = (
            per_txn(&l.phase_queue_wait),
            per_txn(&l.phase_lock_wait),
            per_txn(&l.phase_execute),
            per_txn(&l.phase_reply_wait),
        );
        let commit_wait_us = per_txn(&l.phase_wal_flush);
        let txn_us = server_us.unwrap_or(client_us);
        Attribution {
            client_us,
            frontend_us: server_us.map(|s| client_us - s),
            queue_us,
            lock_us,
            exec_us,
            reply_us,
            commit_wait_us,
            unattributed_us: txn_us - (queue_us + lock_us + exec_us + reply_us) - commit_wait_us,
        }
    }

    pub fn table(&self) -> String {
        let mut out = String::from("per-transaction attribution (mean us):\n");
        let mut row = |label: &str, us: f64| {
            let _ = writeln!(
                out,
                "  {label:<28} {us:>10.2}  {:>5.1}%",
                100.0 * ratio(us, self.client_us)
            );
        };
        if let Some(f) = self.frontend_us {
            row("front end (wire)", f);
        }
        row("dispatch: queue wait", self.queue_us);
        row("dispatch: lock wait", self.lock_us);
        row("dispatch: execute", self.exec_us);
        row("dispatch: reply wait", self.reply_us);
        row("commit wait (wal)", self.commit_wait_us);
        row("unattributed", self.unattributed_us);
        row("= client latency", self.client_us);
        out
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Per-layer metrics read from one window's ledger delta.
pub fn layer_metrics(delta: &Ledger, attribution: &Attribution, out: &mut Metrics) {
    let s = &delta.stats;
    let l = &delta.latency;
    let txns = delta.txns() as f64;
    let per_txn = |v: u64| ratio(v as f64, txns);

    // plp-server
    let req = s.server.frames_decoded as f64;
    out.set("server.request_p50_us", "us", us(l.server_request.p50()));
    out.set("server.request_p99_us", "us", us(l.server_request.p99()));
    out.set(
        "server.bytes_in_per_req",
        "B/req",
        ratio(s.server.bytes_in as f64, req),
    );
    out.set(
        "server.bytes_out_per_req",
        "B/req",
        ratio(s.server.bytes_out as f64, s.server.responses_sent as f64),
    );
    out.set(
        "server.decode_errors",
        "count",
        s.server.decode_errors as f64,
    );

    // plp-core dispatch
    let m = &s.msg;
    let actions = m.actions as f64;
    out.set("core.actions_per_txn", "count/txn", per_txn(m.actions));
    out.set("core.batches_per_txn", "count/txn", per_txn(m.batches));
    out.set(
        "core.roundtrip_mean_us",
        "us",
        l.action_roundtrip.mean() / 1_000.0,
    );
    out.set("core.roundtrip_p99_us", "us", us(l.action_roundtrip.p99()));
    out.set("core.queue_wait_mean_us", "us", attribution.queue_us);
    out.set("core.exec_mean_us", "us", attribution.exec_us);
    out.set("core.reply_wait_mean_us", "us", attribution.reply_us);
    out.set(
        "core.stage_dispatch_mean_us",
        "us",
        l.stage_dispatch.mean() / 1_000.0,
    );
    out.set(
        "core.parks_per_action",
        "count",
        ratio(m.parks as f64, actions),
    );
    out.set(
        "core.wakeups_per_action",
        "count",
        ratio(m.wakeups as f64, actions),
    );
    out.set(
        "core.spins_per_action",
        "count",
        ratio((m.enqueue_spins + m.dequeue_spins) as f64, actions),
    );
    out.set("core.reply_pool_hit_rate", "ratio", m.reply_pool_hit_rate());
    out.set("core.lane_hit_rate", "ratio", m.lane_hit_rate());
    out.set(
        "core.unattributed_us_per_txn",
        "us",
        attribution.unattributed_us,
    );

    // plp-lock
    let lock_cs = s.cs.entries(CsCategory::LockMgr);
    out.set("lock.cs_per_txn", "count/txn", per_txn(lock_cs));
    out.set(
        "lock.contended_ratio",
        "ratio",
        ratio(s.cs.contended(CsCategory::LockMgr) as f64, lock_cs as f64),
    );
    out.set(
        "lock.waits_per_txn",
        "count/txn",
        per_txn(l.lock_wait.count),
    );
    out.set("lock.wait_p99_us", "us", us(l.lock_wait.p99()));

    // plp-storage and plp-btree
    let latches = &s.latches;
    let contended: u64 = PageKind::ALL.iter().map(|&k| latches.contended(k)).sum();
    let wait_ns: u64 = PageKind::ALL.iter().map(|&k| latches.wait_nanos(k)).sum();
    out.set(
        "storage.index_latches_per_txn",
        "count/txn",
        per_txn(latches.acquired(PageKind::Index)),
    );
    out.set(
        "storage.heap_latches_per_txn",
        "count/txn",
        per_txn(latches.acquired(PageKind::Heap)),
    );
    out.set(
        "storage.latch_bypass_per_txn",
        "count/txn",
        per_txn(latches.total_bypassed()),
    );
    out.set(
        "storage.latch_contended_ratio",
        "ratio",
        ratio(contended as f64, latches.total_acquired() as f64),
    );
    out.set(
        "storage.latch_wait_us_per_txn",
        "us",
        ratio(us(wait_ns), txns),
    );
    out.set(
        "storage.bpool_cs_per_txn",
        "count/txn",
        per_txn(s.cs.entries(CsCategory::Bpool)),
    );
    out.set(
        "btree.smo_per_ktxn",
        "count/ktxn",
        1_000.0 * per_txn(s.smo_count),
    );

    // plp-txn
    out.set(
        "txn.xct_cs_per_txn",
        "count/txn",
        per_txn(s.cs.entries(CsCategory::XctMgr)),
    );
    out.set("txn.abort_ratio", "ratio", per_txn(s.aborted));

    // plp-wal
    out.set(
        "wal.records_per_txn",
        "count/txn",
        per_txn(delta.log_records),
    );
    out.set("wal.bytes_per_txn", "B/txn", per_txn(delta.log_bytes));
    out.set("wal.fsyncs_per_txn", "count/txn", per_txn(s.wal.fsyncs));
    out.set(
        "wal.group_size",
        "txn/fsync",
        ratio(s.committed as f64, s.wal.fsyncs as f64),
    );
    out.set("wal.fsync_p50_us", "us", us(l.wal_fsync.p50()));
    out.set("wal.fsync_p99_us", "us", us(l.wal_fsync.p99()));
    out.set("wal.commit_wait_p50_us", "us", us(l.phase_wal_flush.p50()));
    out.set(
        "wal.logmgr_cs_per_txn",
        "count/txn",
        per_txn(s.cs.entries(CsCategory::LogMgr)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> HistogramSnapshot {
        let h = plp_instrument::Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    fn balanced() -> Ledger {
        let mut d = Ledger::default();
        d.stats.committed = 2;
        d.latency.action_roundtrip = hist(&[700, 300]);
        d.latency.phase_queue_wait = hist(&[100, 50]);
        d.latency.phase_lock_wait = hist(&[0, 0]);
        d.latency.phase_execute = hist(&[400, 200]);
        d.latency.phase_reply_wait = hist(&[200, 50]);
        d
    }

    #[test]
    fn reconcile_accepts_a_balanced_ledger() {
        assert_eq!(reconcile(&balanced(), 2), Ok(()));
    }

    #[test]
    fn reconcile_rejects_phases_that_do_not_add_up() {
        let mut d = balanced();
        d.latency.phase_execute = hist(&[400, 201]);
        assert!(reconcile(&d, 2).unwrap_err().contains("phase"));
    }

    #[test]
    fn reconcile_rejects_a_transaction_count_mismatch() {
        assert!(reconcile(&balanced(), 3)
            .unwrap_err()
            .contains("clients ran 3"));
    }

    #[test]
    fn attribution_adds_up_to_client_latency() {
        let mut d = balanced();
        d.latency.server_request = hist(&[2_000, 2_000]);
        let a = Attribution::of(&d, &[3_000, 3_000], true);
        let parts = a.frontend_us.unwrap()
            + a.queue_us
            + a.lock_us
            + a.exec_us
            + a.reply_us
            + a.commit_wait_us
            + a.unattributed_us;
        assert!((parts - a.client_us).abs() < 1e-9, "{a:?}");
        assert!((a.frontend_us.unwrap() - 1.0).abs() < 1e-9);
    }
}
