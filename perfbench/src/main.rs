//! The repository's checked benchmark.
//!
//! ```text
//! perfbench --workload <tatp-inproc|tatp-wire|tpcb-strict> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the engine's public API only, checks every
//! output, prints a human-readable report and, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run adds a
//! traced window and reports the per-layer ones.  Exits 1 when any output
//! or ledger check fails, 2 on a usage error.  See `README.md`.

mod checks;
mod inproc;
mod ledger;
mod report;
mod tpcb;
mod trace;
mod window;
mod wire;

use std::process::ExitCode;
use std::time::Instant;

use report::{result_line, Metrics};

/// End-to-end metrics, in output order, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_tps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in output order, with their units.  A layer a
/// workload does not use reads 0.  The first three are the client's view,
/// kept here because an end-to-end metric must be steady and present on
/// every workload: the p99 tail follows the host's fsync and wake-up
/// latency, failures are 0 on a correct run, and only `tpcb-strict`
/// recovers.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p99_us", "us"),
    ("failure_ratio", "ratio"),
    ("recovery_s", "s"),
    ("bench.latency_samples", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.root_self_us", "us"),
    ("server.request_p50_us", "us"),
    ("server.request_p99_us", "us"),
    ("wire.frontend_p50_us", "us"),
    ("client.send_us", "us"),
    ("client.recv_wait_us", "us"),
    ("server.bytes_in_per_req", "B/req"),
    ("server.bytes_out_per_req", "B/req"),
    ("server.decode_errors", "count"),
    ("core.actions_per_txn", "count/txn"),
    ("core.batches_per_txn", "count/txn"),
    ("core.roundtrip_mean_us", "us"),
    ("core.roundtrip_p99_us", "us"),
    ("core.queue_wait_mean_us", "us"),
    ("core.exec_mean_us", "us"),
    ("core.reply_wait_mean_us", "us"),
    ("core.stage_dispatch_mean_us", "us"),
    ("core.parks_per_action", "count"),
    ("core.wakeups_per_action", "count"),
    ("core.spins_per_action", "count"),
    ("core.reply_pool_hit_rate", "ratio"),
    ("core.lane_hit_rate", "ratio"),
    ("core.unattributed_us_per_txn", "us"),
    ("lock.cs_per_txn", "count/txn"),
    ("lock.contended_ratio", "ratio"),
    ("lock.waits_per_txn", "count/txn"),
    ("lock.wait_p99_us", "us"),
    ("storage.index_latches_per_txn", "count/txn"),
    ("storage.heap_latches_per_txn", "count/txn"),
    ("storage.latch_bypass_per_txn", "count/txn"),
    ("storage.latch_contended_ratio", "ratio"),
    ("storage.latch_wait_us_per_txn", "us"),
    ("storage.bpool_cs_per_txn", "count/txn"),
    ("btree.smo_per_ktxn", "count/ktxn"),
    ("txn.xct_cs_per_txn", "count/txn"),
    ("txn.abort_ratio", "ratio"),
    ("wal.records_per_txn", "count/txn"),
    ("wal.bytes_per_txn", "B/txn"),
    ("wal.fsyncs_per_txn", "count/txn"),
    ("wal.group_size", "txn/fsync"),
    ("wal.fsync_p50_us", "us"),
    ("wal.fsync_p99_us", "us"),
    ("wal.commit_wait_p50_us", "us"),
    ("wal.logmgr_cs_per_txn", "count/txn"),
    ("wal.recovery_records_per_s", "1/s"),
];

/// The settings of one invocation.
pub struct Run {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Clock origin of every span of the run.
    pub epoch: Instant,
}

/// What a workload hands back: counts over its measured windows, every
/// failed check, every metric it computed, and the human-readable report.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Metrics,
    pub text: String,
}

const USAGE: &str = "usage: perfbench --workload <tatp-inproc|tatp-wire|tpcb-strict> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Run), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds}: want 1..=600"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: want 0 or 1")),
    };
    Ok((
        workload.ok_or("--workload is required")?,
        Run {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            epoch: Instant::now(),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "tatp-inproc" => inproc::run(&run),
        "tatp-wire" => wire::run(&run),
        "tpcb-strict" => tpcb::run(&run),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    finish(&workload, &run, outcome)
}

/// Print the report and the result line; the exit code says whether every
/// check passed.
fn finish(workload: &str, run: &Run, mut outcome: Outcome) -> ExitCode {
    let wanted = if run.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Metrics::default();
    for &(name, unit) in wanted {
        match outcome.metrics.get(name) {
            Some(v) => metrics.set(name, unit, v),
            // A per-layer metric the workload has no layer for reads 0; an
            // end-to-end metric is never missing.
            None if run.trace => metrics.set(name, unit, 0.0),
            None => outcome
                .problems
                .push(format!("end-to-end metric {name} was not measured")),
        }
    }
    println!(
        "perfbench {workload} seed={} seconds={} trace={}",
        run.seed, run.seconds, run.trace as u8
    );
    print!("{}", outcome.text);
    println!("all metrics:");
    print!("{}", outcome.metrics.lines());
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    if !correct {
        println!("FAILED CHECKS ({} failed operations):", outcome.failed);
        for p in &outcome.problems {
            println!("  {p}");
        }
    }
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names every metric exactly as the benchmark prints
    /// it, with the same unit.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let compact: String = json.split_whitespace().collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{entry} missing");
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
