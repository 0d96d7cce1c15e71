//! Standalone connection server hosting a TATP-loaded engine.
//!
//! ```text
//! plp_serve [--addr HOST:PORT] [--subscribers N] [--partitions N]
//!           [--obs HOST:PORT] [--duration-ms MS]
//! ```
//!
//! Binds the wire-protocol listener (port 0 picks an ephemeral port; the
//! bound address is printed as `listening ADDR` on stdout, line-buffered, so
//! harnesses can scrape it), optionally exposes the observability endpoint,
//! and serves until the duration elapses (0 = forever / until killed).

use std::sync::Arc;
use std::time::Duration;

use plp_core::{Design, Engine, EngineConfig};
use plp_server::{Server, ServerConfig};
use plp_workloads::tatp::Tatp;
use plp_workloads::Workload;

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> u64 {
    parse_flag(args, flag)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("{flag} wants a number, got {v}")))
        })
        .unwrap_or(default)
}

fn die(msg: &str) -> ! {
    eprintln!("plp_serve: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = parse_flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let subscribers = parse_u64(&args, "--subscribers", 10_000);
    let partitions = parse_u64(&args, "--partitions", 4) as usize;
    let duration_ms = parse_u64(&args, "--duration-ms", 0);

    let workload = Tatp::new(subscribers);
    let mut config = EngineConfig::new(Design::PlpRegular).with_partitions(partitions);
    if let Some(obs) = parse_flag(&args, "--obs") {
        config = config.with_obs_endpoint(obs);
    }
    let engine = Engine::start_shared(config, &workload.schema());
    workload
        .load(engine.db())
        .unwrap_or_else(|e| die(&format!("load failed: {e}")));
    engine.finish_loading();

    let server = Server::serve(Arc::clone(&engine), ServerConfig::default().with_addr(addr))
        .unwrap_or_else(|e| die(&format!("bind failed: {e}")));
    println!("listening {}", server.addr());

    if duration_ms == 0 {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_millis(duration_ms));
    drop(server);
    let snap = engine.db().stats().snapshot().server;
    println!(
        "served connections={} frames={} responses={} decode_errors={}",
        snap.connections_accepted, snap.frames_decoded, snap.responses_sent, snap.decode_errors
    );
}
