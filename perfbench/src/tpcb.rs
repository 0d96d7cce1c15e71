//! `tpcb-strict`: two in-process sessions run a fixed number of
//! `TpcB::account_update` transactions over 8 branches (80 k accounts) on
//! Conventional+SLI with `DurabilityMode::Strict` and a fresh log
//! directory; then `Engine::shutdown` and `Engine::recover` on that
//! directory.  The count is fixed (per `--seconds`) so the recovered log has
//! a fixed length.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use plp_core::TransactionPlan;
use plp_core::{Design, Engine, EngineConfig};
use plp_wal::DurabilityMode;
use plp_workloads::tpcb::{TpcB, ACCOUNTS_PER_BRANCH, TELLERS_PER_BRANCH};
use plp_workloads::Workload;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::checks::{check_recovered, check_tpcb, TpcbState, TpcbTally};
use crate::ledger;
use crate::report::ratio;
use crate::trace::Tracer;
use crate::window::{
    report_measured, report_traced, set_up, stream_seed, windows, Tally, Window, CLIENTS,
    WARMUP_PHASE,
};
use crate::{Outcome, Run};

pub const BRANCHES: u64 = 8;
/// Warm-up transactions per client.
const WARMUP_TXNS: u64 = 500;
/// Measured transactions per client per `--seconds`.
const TXNS_PER_CLIENT_SECOND: u64 = 2_000;
/// Temporary log directories live here, relative to the working directory.
const LOG_ROOT: &str = ".bench_tmp";

/// A fresh log directory, removed when dropped.
struct LogDir(PathBuf);

impl LogDir {
    fn fresh(tag: usize) -> Result<LogDir, String> {
        let path = Path::new(LOG_ROOT).join(format!("tpcb-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(LogDir(path))
    }
}

impl Drop for LogDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once the last run's directory is gone.
        let _ = std::fs::remove_dir(LOG_ROOT);
    }
}

fn config(log_dir: &Path) -> EngineConfig {
    EngineConfig::new(Design::Conventional { sli: true })
        .with_durability(DurabilityMode::Strict)
        .with_log_dir(log_dir)
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure(run, &mut out) {
        out.problems.push(e);
    }
    out
}

fn setup(tpcb: &TpcB, dir: &LogDir, tracer: &mut Tracer) -> Result<Engine, String> {
    let schema = tpcb.schema();
    let engine = tracer.time(0, None, "Engine::start", || {
        Engine::start(config(&dir.0), &schema)
    });
    tracer
        .time(0, None, "Workload::load", || tpcb.load(engine.db()))
        .map_err(|e| format!("TPC-B load: {e}"))?;
    tracer.time(0, None, "Engine::finish_loading", || {
        engine.finish_loading()
    });
    Ok(engine)
}

fn measure(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let tpcb = TpcB::new(BRANCHES);
    let mut tracer = Tracer::new(run.trace, run.epoch, 0);
    let ((mut engine, dir), setup_s) = set_up(
        run,
        |k| {
            let dir = LogDir::fresh(k)?;
            Ok((setup(&tpcb, &dir, &mut tracer)?, dir))
        },
        |(mut old, dir): (Engine, LogDir)| {
            old.shutdown();
            // The engine's log files go before their directory.
            drop(old);
            drop(dir);
            Ok(())
        },
    )?;
    let base = TpcbState::read(&engine, BRANCHES)?;

    let mut committed = TpcbTally::new(BRANCHES);
    let kept = windows(
        run,
        out,
        |phase, traced| {
            let count = if phase == WARMUP_PHASE {
                WARMUP_TXNS
            } else {
                TXNS_PER_CLIENT_SECOND * run.seconds
            };
            let (w, tallies) = window(&engine, &tpcb, run, phase, count, traced);
            tallies.iter().for_each(|t| committed.merge(t));
            w
        },
        |w| ledger::reconcile(&w.ledger, w.tally.attempted),
    );
    let before_shutdown = TpcbState::read(&engine, BRANCHES)?;
    if let Err(e) = check_tpcb(&base, &before_shutdown, &committed) {
        out.problems.push(e);
    }

    let engine_trace = run.trace.then(|| engine.trace_json());
    tracer.time(0, None, "Engine::shutdown", || engine.shutdown());
    drop(engine);
    let t0 = Instant::now();
    let recovered = tracer.time(0, None, "Engine::recover", || {
        Engine::recover(&dir.0, config(&dir.0), &tpcb.schema())
    });
    let recovery_s = t0.elapsed().as_secs_f64();
    let (mut recovered, report) = recovered.map_err(|e| format!("Engine::recover: {e}"))?;
    let after = TpcbState::read(&recovered, BRANCHES)?;
    if let Err(e) = check_recovered(&before_shutdown, &after, report.loser_txns) {
        out.problems.push(e);
    }
    recovered.shutdown();

    report_measured(out, &kept[0], &setup_s, false)?;
    out.metrics.set("recovery_s", "s", recovery_s);
    out.metrics.set(
        "wal.recovery_records_per_s",
        "1/s",
        ratio(report.records_replayed as f64, recovery_s),
    );
    let _ = writeln!(
        out.text,
        "recovery: {recovery_s:.3} s, {} committed txns, {} records replayed, {} losers",
        report.committed_txns, report.records_replayed, report.loser_txns
    );
    if let (Some(traced), Some(engine_trace)) = (kept.get(1), engine_trace) {
        report_traced(
            out,
            "tpcb-strict",
            run,
            (&kept[0], traced),
            "txn",
            tracer.into_spans(),
            &engine_trace,
        )?;
    }
    Ok(())
}

/// The TPC-B transaction the benchmark chose, built by `TpcB`'s public
/// constructor.
fn tpcb_plan(tpcb: &TpcB, rng: &mut ChaCha8Rng) -> (u64, i64, TransactionPlan) {
    let branch = rng.gen_range(0..tpcb.branches());
    let teller = rng.gen_range(0..TELLERS_PER_BRANCH);
    let account = rng.gen_range(0..ACCOUNTS_PER_BRANCH);
    let delta = rng.gen_range(-5_000i64..5_000);
    (
        branch,
        delta,
        tpcb.account_update(branch, teller, account, delta),
    )
}

/// `count` account updates on each of [`CLIENTS`] sessions.
fn window(
    engine: &Engine,
    tpcb: &TpcB,
    run: &Run,
    phase: u64,
    count: u64,
    traced: bool,
) -> (Window, Vec<TpcbTally>) {
    Window::run(
        engine,
        (0..CLIENTS).collect(),
        || {},
        |i, _, origin| {
            let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(run.seed, phase, i));
            let mut session = engine.session();
            let lane = (phase << 8) | (i as u64 + 1);
            let mut tracer = Tracer::new(traced, run.epoch, lane);
            let mut tally = Tally::default();
            let mut committed = TpcbTally::new(BRANCHES);
            for n in 0..count {
                let id = (lane << 32) | n;
                let root = tracer.reserve();
                let root_start = tracer.now();
                let (branch, delta, plan) = tpcb_plan(tpcb, &mut rng);
                let exec_start = tracer.now();
                let t0 = Instant::now();
                let result = session.execute(plan);
                let t1 = Instant::now();
                tracer.record(id, Some(root), "Session::execute", exec_start, tracer.now());
                tally.attempted += 1;
                tally.sample(origin, t0, t1);
                match result {
                    Ok(_) => {
                        tally.completed += 1;
                        committed.commit(branch, delta);
                    }
                    Err(e) => tally.fail(format!(
                        "account update on branch {branch} did not commit: {e}"
                    )),
                }
                tracer.record_as(root, id, None, "txn", root_start, tracer.now());
            }
            tally.spans = tracer.into_spans();
            (tally, committed)
        },
    )
}
