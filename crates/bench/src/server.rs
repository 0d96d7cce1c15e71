//! Wire-protocol server saturation benchmark (`fig_server`).
//!
//! Stands a TATP-loaded engine behind the TCP connection server and sweeps
//! client connections × pipeline depth, measuring delivered throughput and
//! client-observed latency per point.  The **saturation point** — the sweep
//! point with the highest throughput — is what the CI perf gate tracks: a
//! collapse there means the network front end (framing, single-hop
//! dispatch to the partition workers, response writer) regressed,
//! independent of which exact point wins on a given runner.
//!
//! Latency is measured closed-loop at the client: each connection keeps
//! `depth` requests in flight and stamps every request id at send time, so
//! p50/p99 include the queueing a pipelined client actually experiences.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use plp_client::{Connection, TatpOpMix};
use plp_core::{Design, Engine, EngineConfig};
use plp_server::{Server, ServerConfig};
use plp_workloads::tatp::Tatp;
use plp_workloads::Workload;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::msgcost::json_number;
use crate::Scale;

/// Engine partitions behind the benchmarked server.
pub const SERVER_PARTITIONS: usize = 4;
/// Absolute floor on saturation throughput: even with no (or a stale)
/// baseline entry, the gate fails if the server cannot clear this on a CI
/// runner — that only happens when the front end is broken, not slow.
pub const SERVER_TPS_FLOOR: f64 = 1_000.0;

/// The connections × depth sweep at quick scale (CI perf-smoke).
pub const QUICK_SWEEP: &[(usize, usize)] = &[(1, 1), (2, 8), (4, 16)];
/// The sweep at full scale (nightly).
pub const FULL_SWEEP: &[(usize, usize)] = &[(1, 1), (2, 4), (4, 8), (8, 16), (8, 32)];

/// One measured sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPoint {
    pub connections: usize,
    pub depth: usize,
    /// Requests completed per second across all connections.
    pub tps: f64,
    /// Client-observed median latency, milliseconds.
    pub p50_ms: f64,
    /// Client-observed 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
}

/// A full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerResult {
    pub points: Vec<ServerPoint>,
}

impl ServerResult {
    /// The highest-throughput point of the sweep — what the gate tracks.
    pub fn saturation(&self) -> &ServerPoint {
        self.points
            .iter()
            .max_by(|a, b| a.tps.total_cmp(&b.tps))
            .expect("sweep measured at least one point")
    }
}

/// Measure the standard sweep for the given scale.
pub fn measure_server(scale: Scale, full: bool) -> ServerResult {
    let sweep = if full { FULL_SWEEP } else { QUICK_SWEEP };
    measure_sweep(scale, sweep, scale.txns_per_thread.max(1_000))
}

/// Measure an explicit `(connections, depth)` sweep, `requests_per_conn`
/// requests per connection per point, against a fresh TATP-loaded engine.
pub fn measure_sweep(
    scale: Scale,
    sweep: &[(usize, usize)],
    requests_per_conn: u64,
) -> ServerResult {
    let tatp = Tatp::new(scale.subscribers);
    let config = EngineConfig::new(Design::PlpRegular).with_partitions(SERVER_PARTITIONS);
    let engine = Engine::start_shared(config, &tatp.schema());
    tatp.load(engine.db()).expect("load TATP");
    engine.finish_loading();
    let mut server =
        Server::serve(Arc::clone(&engine), ServerConfig::default()).expect("bind server");
    let addr = server.addr();

    let points = sweep
        .iter()
        .enumerate()
        .map(|(i, &(connections, depth))| {
            run_point(
                addr,
                connections,
                depth,
                requests_per_conn,
                scale.subscribers,
                0x9E37_79B9 ^ ((i as u64) << 32),
            )
        })
        .collect();
    server.stop();
    ServerResult { points }
}

/// Drive one sweep point: `connections` client threads, each keeping
/// `depth` requests in flight until `requests` responses came back.
fn run_point(
    addr: SocketAddr,
    connections: usize,
    depth: usize,
    requests: u64,
    subscribers: u64,
    seed: u64,
) -> ServerPoint {
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            std::thread::spawn(move || {
                let mut conn = Connection::connect(addr).expect("connect");
                let mix = TatpOpMix::new(subscribers);
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((c as u64) << 16));
                let mut in_flight: HashMap<u64, Instant> = HashMap::with_capacity(depth);
                let mut lat_ns: Vec<u64> = Vec::with_capacity(requests as usize);
                let started = Instant::now();
                let mut sent = 0u64;
                while sent < requests.min(depth as u64) {
                    let id = conn.send(&mix.next_op(&mut rng)).expect("send");
                    in_flight.insert(id, Instant::now());
                    sent += 1;
                }
                conn.flush().expect("flush");
                while (lat_ns.len() as u64) < requests {
                    // Errors (duplicate key on call-forwarding churn) are part
                    // of the TATP mix; a completed response is a completed
                    // request either way.
                    let (id, _response) = conn.recv().expect("recv");
                    let sent_at = in_flight
                        .remove(&id)
                        .expect("response matches a pending id");
                    lat_ns.push(sent_at.elapsed().as_nanos() as u64);
                    if sent < requests {
                        let id = conn.send(&mix.next_op(&mut rng)).expect("send");
                        conn.flush().expect("flush");
                        in_flight.insert(id, Instant::now());
                        sent += 1;
                    }
                }
                (lat_ns, started.elapsed())
            })
        })
        .collect();

    let mut all_ns: Vec<u64> = Vec::new();
    let mut slowest = Duration::ZERO;
    for handle in handles {
        let (lat_ns, elapsed) = handle.join().expect("client thread");
        all_ns.extend(lat_ns);
        slowest = slowest.max(elapsed);
    }
    all_ns.sort_unstable();
    ServerPoint {
        connections,
        depth,
        tps: all_ns.len() as f64 / slowest.as_secs_f64().max(1e-9),
        p50_ms: percentile_ms(&all_ns, 0.50),
        p99_ms: percentile_ms(&all_ns, 0.99),
    }
}

fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

/// The gate document: the saturation point only (the full sweep goes into
/// the nightly artifact via [`server_sweep_json`]).
pub fn server_json(r: &ServerResult) -> String {
    let sat = r.saturation();
    format!(
        "{{\"bench\":\"server\",\"saturation_tps\":{:.1},\"saturation_connections\":{},\
         \"saturation_depth\":{},\"saturation_p50_ms\":{:.3},\"saturation_p99_ms\":{:.3}}}\n",
        sat.tps, sat.connections, sat.depth, sat.p50_ms, sat.p99_ms
    )
}

/// Parse a [`server_json`] document — or a committed baseline whose
/// `"server"` entry embeds one.  Returns a single-point result whose
/// saturation is the recorded point.
pub fn parse_server_json(doc: &str) -> Option<ServerResult> {
    Some(ServerResult {
        points: vec![ServerPoint {
            connections: json_number(doc, "saturation_connections")? as usize,
            depth: json_number(doc, "saturation_depth")? as usize,
            tps: json_number(doc, "saturation_tps")?,
            p50_ms: json_number(doc, "saturation_p50_ms")?,
            p99_ms: json_number(doc, "saturation_p99_ms")?,
        }],
    })
}

/// The full sweep as a JSON document (nightly trend artifact).
pub fn server_sweep_json(r: &ServerResult) -> String {
    let points: Vec<String> = r
        .points
        .iter()
        .map(|p| {
            format!(
                "{{\"connections\":{},\"depth\":{},\"tps\":{:.1},\"p50_ms\":{:.3},\
                 \"p99_ms\":{:.3}}}",
                p.connections, p.depth, p.tps, p.p50_ms, p.p99_ms
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"server_sweep\",\"partitions\":{SERVER_PARTITIONS},\"points\":[{}]}}\n",
        points.join(",")
    )
}

/// Gate: the fresh saturation throughput must stay within `threshold` of the
/// baseline's, and above the absolute [`SERVER_TPS_FLOOR`] regardless.
pub fn check_server_against_baseline(
    current: &ServerResult,
    baseline: Option<&ServerResult>,
    threshold: f64,
) -> Result<Vec<String>, Vec<String>> {
    let sat = current.saturation();
    let limit = baseline
        .map(|b| b.saturation().tps * (1.0 - threshold))
        .unwrap_or(0.0)
        .max(SERVER_TPS_FLOOR);
    let line = format!(
        "server saturation: {:.0} tps at {} conns x depth {} (p99 {:.2} ms, limit {:.0} tps)",
        sat.tps, sat.connections, sat.depth, sat.p99_ms, limit
    );
    if sat.tps < limit {
        Err(vec![format!("REGRESSION {line}")])
    } else {
        Ok(vec![format!("ok {line}")])
    }
}

/// Render the sweep as a table; the saturation point is marked.
pub fn server_table(r: &ServerResult) -> plp_instrument::Table {
    use plp_instrument::Cell;
    let mut t = plp_instrument::Table::new(
        "Wire-protocol server: throughput vs connections x pipeline depth (fig_server)",
        &["connections", "depth", "tps", "p50 ms", "p99 ms", ""],
    );
    let sat = (r.saturation().connections, r.saturation().depth);
    for p in &r.points {
        let mark = if (p.connections, p.depth) == sat {
            "saturation"
        } else {
            ""
        };
        t.row(vec![
            Cell::from(p.connections),
            Cell::from(p.depth),
            Cell::FloatPrec(p.tps, 0),
            Cell::FloatPrec(p.p50_ms, 3),
            Cell::FloatPrec(p.p99_ms, 3),
            Cell::from(mark),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(connections: usize, depth: usize, tps: f64) -> ServerPoint {
        ServerPoint {
            connections,
            depth,
            tps,
            p50_ms: 0.4,
            p99_ms: 2.5,
        }
    }

    #[test]
    fn server_json_roundtrip() {
        let result = ServerResult {
            points: vec![point(1, 1, 8_000.0), point(4, 16, 52_341.5)],
        };
        let doc = server_json(&result);
        let parsed = parse_server_json(&doc).expect("parse");
        let sat = parsed.saturation();
        assert_eq!((sat.connections, sat.depth), (4, 16));
        assert!((sat.tps - 52_341.5).abs() < 0.1, "{}", sat.tps);
        assert!((sat.p99_ms - 2.5).abs() < 0.01);
        // The sweep document carries every point.
        let sweep = server_sweep_json(&result);
        assert!(sweep.contains("\"connections\":1") && sweep.contains("\"depth\":16"));
    }

    #[test]
    fn server_gate_tracks_baseline_and_floor() {
        let current = ServerResult {
            points: vec![point(2, 8, 50_000.0)],
        };
        let baseline = ServerResult {
            points: vec![point(2, 8, 60_000.0)],
        };
        // 50k against a 60k baseline: a 17% drop — fails at 10%, passes at 30%.
        let err = check_server_against_baseline(&current, Some(&baseline), 0.10)
            .expect_err("17% drop over a 10% threshold");
        assert!(err[0].starts_with("REGRESSION"), "{err:?}");
        check_server_against_baseline(&current, Some(&baseline), 0.30).expect("within 30%");
        // No baseline entry: only the absolute floor applies.
        let crawling = ServerResult {
            points: vec![point(1, 1, SERVER_TPS_FLOOR / 2.0)],
        };
        check_server_against_baseline(&crawling, None, 0.30).expect_err("below the absolute floor");
        check_server_against_baseline(&current, None, 0.30).expect("above the floor");
    }

    /// A miniature live sweep: engine + server + pipelined clients over real
    /// sockets, two points, a handful of requests — enough to prove the
    /// measurement loop completes and produces sane numbers.
    #[test]
    fn tiny_live_sweep_measures_every_point() {
        let scale = Scale {
            subscribers: 200,
            txns_per_thread: 60,
            max_threads: 2,
        };
        let result = measure_sweep(scale, &[(1, 2), (2, 4)], 80);
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert!(p.tps > 0.0, "{p:?}");
            assert!(p.p99_ms >= p.p50_ms, "{p:?}");
        }
        let sat = result.saturation();
        assert!(result.points.iter().any(|p| p == sat));
        assert!(!server_table(&result).render().is_empty());
    }
}
