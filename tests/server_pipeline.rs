//! End-to-end wire-protocol tests: a live engine behind the TCP connection
//! server, driven by pipelined clients over real sockets.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use plp_client::Connection;
use plp_core::{
    ActionOutput, Design, Engine, EngineConfig, ErrorCode, Op, Request, Response, TableId,
    TableSpec,
};
use plp_server::frame::{Frame, MIN_REMAINDER};
use plp_server::{Server, ServerConfig};
use plp_wal::DurabilityMode;

const KV: TableId = TableId(0);

/// A partitioned engine with a granularity-8 KV table behind a server.
fn serve() -> (Arc<Engine>, Server) {
    serve_config(EngineConfig::new(Design::PlpRegular).with_partitions(2))
}

fn kv_schema() -> Vec<TableSpec> {
    vec![TableSpec::new(0, "kv", 1 << 16).with_granularity(8)]
}

/// An engine with the KV table behind a server.
fn serve_config(config: EngineConfig) -> (Arc<Engine>, Server) {
    let engine = Engine::start_shared(config, &kv_schema());
    engine.finish_loading();
    let server = Server::serve(
        Arc::clone(&engine),
        ServerConfig::default().with_executors(3),
    )
    .expect("bind");
    (engine, server)
}

fn record(key: u64) -> Vec<u8> {
    let mut rec = vec![0u8; 32];
    rec[..8].copy_from_slice(&key.to_le_bytes());
    rec
}

#[test]
fn pipelined_requests_come_back_matched_by_id() {
    let (_engine, mut server) = serve();
    let mut conn = Connection::connect(server.addr()).expect("connect");

    // Pipeline 64 inserts without reading a single response.
    let mut pending: Vec<u64> = Vec::new();
    for key in 0..64u64 {
        let op = Op::Insert {
            table: KV,
            key,
            record: record(key),
            secondary_key: None,
        };
        pending.push(conn.send(&op).unwrap());
    }
    conn.flush().unwrap();
    // Responses arrive in whatever order the executor pool finished them;
    // every request id must be answered exactly once, successfully.
    let mut answered: Vec<u64> = Vec::new();
    for _ in 0..pending.len() {
        let (id, response) = conn.recv().expect("response");
        assert_eq!(
            response,
            Response::Ok(vec![plp_core::ActionOutput::empty()])
        );
        answered.push(id);
    }
    answered.sort_unstable();
    pending.sort_unstable();
    assert_eq!(answered, pending);

    // Read a few back through the same pipe.
    for key in [0u64, 13, 63] {
        match conn.call(&Op::Get { table: KV, key }).unwrap() {
            Response::Ok(outputs) => assert_eq!(outputs[0].rows, vec![record(key)]),
            other => panic!("get {key}: {other:?}"),
        }
    }
    server.stop();
}

#[test]
fn every_op_kind_round_trips_over_the_wire() {
    let (_engine, mut server) = serve();
    let mut conn = Connection::connect(server.addr()).expect("connect");
    let ok = |response: Response| match response {
        Response::Ok(outputs) => outputs,
        Response::Err { code, message } => panic!("unexpected error {code}: {message}"),
    };

    for key in 40..48u64 {
        ok(conn
            .call(&Op::Insert {
                table: KV,
                key,
                record: record(key),
                secondary_key: None,
            })
            .unwrap());
    }
    // Update in place, read it back.
    let mut updated = record(44);
    updated[31] = 0xEE;
    let outputs = ok(conn
        .call(&Op::Update {
            table: KV,
            key: 44,
            record: updated.clone(),
        })
        .unwrap());
    assert_eq!(outputs[0].values, vec![1]);
    let outputs = ok(conn.call(&Op::Get { table: KV, key: 44 }).unwrap());
    assert_eq!(outputs[0].rows, vec![updated.clone()]);

    // Range over one granularity-8 unit: keys 40..=47, updated row included.
    let outputs = ok(conn
        .call(&Op::ReadRange {
            table: KV,
            lo: 40,
            hi: 47,
        })
        .unwrap());
    assert_eq!(outputs[0].values, (40..48).collect::<Vec<u64>>());
    assert_eq!(outputs[0].rows[4], updated);

    // Delete, then the row is gone.
    let outputs = ok(conn
        .call(&Op::Delete {
            table: KV,
            key: 41,
            secondary_key: None,
        })
        .unwrap());
    assert_eq!(outputs[0].values, vec![1]);
    let outputs = ok(conn.call(&Op::Get { table: KV, key: 41 }).unwrap());
    assert!(outputs[0].rows.is_empty());

    // Error paths: duplicate key, missing table, cross-unit range.
    let response = conn
        .call(&Op::Insert {
            table: KV,
            key: 40,
            record: record(40),
            secondary_key: None,
        })
        .unwrap();
    assert_eq!(response.error_code(), Some(ErrorCode::DuplicateKey));
    let response = conn
        .call(&Op::Get {
            table: TableId(9),
            key: 1,
        })
        .unwrap();
    assert_eq!(response.error_code(), Some(ErrorCode::NoSuchTable));
    let response = conn
        .call(&Op::ReadRange {
            table: KV,
            lo: 40,
            hi: 48,
        })
        .unwrap();
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));
    server.stop();
}

#[test]
fn corrupt_frames_get_error_responses_without_losing_the_connection() {
    let (engine, mut server) = serve();
    let mut conn = Connection::connect(server.addr()).expect("connect");

    // A frame with a flipped CRC byte: rejected, request id preserved.
    let mut corrupt = Frame::request(7777, &Op::Get { table: KV, key: 1 }).encode();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    conn.send_bytes(&corrupt).unwrap();
    conn.flush().unwrap();
    let (id, response) = conn.recv().unwrap();
    assert_eq!(id, 7777);
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));

    // An unknown opcode inside a well-formed frame: same, via to_op.
    let mut unknown = Frame::hello(501);
    unknown.opcode = 9;
    conn.send_frame(&unknown).unwrap();
    conn.flush().unwrap();
    let (id, response) = conn.recv().unwrap();
    assert_eq!(id, 501);
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));

    // A runt frame (len below the header size): rejected without an id.
    let mut runt = 10u32.to_le_bytes().to_vec();
    runt.extend_from_slice(&[0u8; 10]);
    conn.send_bytes(&runt).unwrap();
    conn.flush().unwrap();
    let (id, response) = conn.recv().unwrap();
    assert_eq!(id, 0, "no salvageable request id");
    assert_eq!(response.error_code(), Some(ErrorCode::BadRequest));

    // The connection still works.
    let response = conn.call(&Op::Get { table: KV, key: 5 }).unwrap();
    assert!(response.is_ok());

    let snap = engine.db().stats().snapshot().server;
    assert_eq!(snap.decode_errors, 2, "crc + runt (unknown opcode decodes)");
    assert!(snap.frames_decoded >= 3, "hello + unknown + get");
    server.stop();
    let snap = engine.db().stats().snapshot().server;
    assert_eq!(snap.connections_accepted, 1);
    assert_eq!(snap.connections_closed, 1);
    assert_eq!(snap.active_connections(), 0);

    // Sanity: the wire's minimum-frame constant matches Frame::encode.
    assert_eq!(Frame::hello(0).encode().len(), MIN_REMAINDER + 4);
}

#[test]
fn many_connections_share_the_executor_pool() {
    let (engine, mut server) = serve();
    let addr = server.addr();
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut conn = Connection::connect(addr).expect("connect");
                // Disjoint key stripes per connection, pipelined depth 16.
                let base = 1_000 + t * 100;
                let mut pending = Vec::new();
                for key in base..base + 16 {
                    pending.push(
                        conn.send(&Op::Insert {
                            table: KV,
                            key,
                            record: record(key),
                            secondary_key: None,
                        })
                        .unwrap(),
                    );
                }
                conn.flush().unwrap();
                for _ in &pending {
                    let (_, response) = conn.recv().expect("response");
                    assert!(response.is_ok(), "{response:?}");
                }
                for key in base..base + 16 {
                    let response = conn.call(&Op::Get { table: KV, key }).unwrap();
                    match response {
                        Response::Ok(outputs) => assert_eq!(outputs[0].rows, vec![record(key)]),
                        other => panic!("{other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // The in-process path stays fully usable next to the server.
    let mut session = engine.session();
    let response = session.run(plp_core::Request::single(Op::Get {
        table: KV,
        key: 1_000,
    }));
    match response {
        Response::Ok(outputs) => assert_eq!(outputs[0].rows, vec![record(1_000)]),
        other => panic!("{other:?}"),
    }
    server.stop();
    let snap = engine.db().stats().snapshot().server;
    assert_eq!(snap.connections_accepted, 4);
    assert_eq!(snap.active_connections(), 0);
    // Per connection: HelloAck + 16 insert + 16 get responses.
    assert!(snap.responses_sent >= 4 * 33, "{snap:?}");
}

/// A client connection whose reads fail after 30 s instead of hanging, so a
/// request the server never answers fails the test.
fn connect(server: &Server) -> Connection {
    let conn = Connection::connect(server.addr()).expect("connect");
    conn.stream()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    conn
}

fn insert(key: u64) -> Op {
    Op::Insert {
        table: KV,
        key,
        record: record(key),
        secondary_key: None,
    }
}

/// Pipeline every op in `ops`, then collect one response per op and return
/// them keyed by the op's index.  Fails on an unknown or repeated id.
fn pipeline(conn: &mut Connection, ops: &[Op]) -> Vec<Response> {
    let mut index_of = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        index_of.insert(conn.send(op).unwrap(), i);
    }
    conn.flush().unwrap();
    let mut out: Vec<Option<Response>> = vec![None; ops.len()];
    for _ in ops {
        let (id, response) = conn.recv().expect("response");
        let i = index_of.remove(&id).expect("response id is in flight");
        out[i] = Some(response);
    }
    out.into_iter().map(Option::unwrap).collect()
}

#[test]
fn single_hop_survives_concurrent_repartitioning() {
    for design in [
        Design::LogicalOnly,
        Design::PlpRegular,
        Design::PlpPartition,
        Design::PlpLeaf,
    ] {
        let (engine, mut server) = serve_config(EngineConfig::new(design).with_partitions(2));
        let stop = Arc::new(AtomicBool::new(false));
        let repartitioner = {
            let (engine, stop) = (Arc::clone(&engine), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut rounds = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let mid = if rounds.is_multiple_of(2) {
                        1 << 14
                    } else {
                        3 << 14
                    };
                    engine.repartition(KV, &[0, mid]).expect("repartition");
                    rounds += 1;
                }
                rounds
            })
        };
        let mut conn = connect(&server);
        // Keys spread over the whole key space, so the moving boundary
        // keeps changing which worker owns many of them.
        let keys: Vec<u64> = (0..256u64).map(|i| i * 251 % (1 << 16)).collect();
        for chunk in keys.chunks(64) {
            let ops: Vec<Op> = chunk.iter().map(|&k| insert(k)).collect();
            for response in pipeline(&mut conn, &ops) {
                assert_eq!(
                    response,
                    Response::Ok(vec![ActionOutput::empty()]),
                    "{design:?}"
                );
            }
        }
        for _ in 0..4 {
            let ops: Vec<Op> = keys.iter().map(|&key| Op::Get { table: KV, key }).collect();
            for (key, response) in keys.iter().zip(pipeline(&mut conn, &ops)) {
                assert_eq!(
                    response,
                    Response::Ok(vec![ActionOutput::with_rows(vec![record(*key)])]),
                    "{design:?} key {key}"
                );
            }
        }
        stop.store(true, Ordering::SeqCst);
        let rounds = repartitioner.join().unwrap();
        assert!(rounds > 0, "{design:?}: no repartition ran");
        server.stop();
    }
}

#[test]
fn rejected_requests_answer_exactly_like_session_run() {
    let (engine, mut server) = serve();
    let mut conn = connect(&server);
    let rejected = [
        Op::Get {
            table: TableId(9),
            key: 1,
        },
        Op::ReadRange {
            table: KV,
            lo: 40,
            hi: 48,
        },
        Op::ReadRange {
            table: KV,
            lo: 9,
            hi: 3,
        },
    ];
    let mut session = engine.session();
    let wire = pipeline(&mut conn, &rejected);
    for (op, response) in rejected.iter().zip(wire) {
        let in_process = session.run(Request::single(op.clone()));
        assert!(!in_process.is_ok(), "{op:?}");
        assert_eq!(response, in_process, "{op:?}");
    }
    assert_eq!(
        conn.call(&rejected[0]).unwrap().error_code(),
        Some(ErrorCode::NoSuchTable)
    );
    assert_eq!(
        conn.call(&rejected[1]).unwrap().error_code(),
        Some(ErrorCode::BadRequest)
    );
    server.stop();
}

#[test]
fn conventional_designs_run_through_the_executor_pool() {
    for sli in [false, true] {
        let (engine, mut server) = serve_config(EngineConfig::new(Design::Conventional { sli }));
        assert!(engine.partition_manager().is_none());
        let mut conn = connect(&server);
        let keys: Vec<u64> = (500..564).collect();
        let ops: Vec<Op> = keys.iter().map(|&k| insert(k)).collect();
        for response in pipeline(&mut conn, &ops) {
            assert!(response.is_ok(), "sli={sli}: {response:?}");
        }
        let ops: Vec<Op> = keys.iter().map(|&key| Op::Get { table: KV, key }).collect();
        for (key, response) in keys.iter().zip(pipeline(&mut conn, &ops)) {
            assert_eq!(
                response,
                Response::Ok(vec![ActionOutput::with_rows(vec![record(*key)])])
            );
        }
        // No worker dispatch happened: the executors ran every request.
        assert_eq!(engine.db().stats().snapshot().msg.actions, 0);
        server.stop();
    }
}

#[test]
fn stop_answers_requests_queued_on_workers() {
    let (engine, server) = serve();
    let mut conn = connect(&server);
    // Park both workers, so every request below queues on a worker.
    let pm = engine.partition_manager().expect("partitioned");
    let resumers: Vec<_> = (0..pm.worker_count())
        .map(|i| pm.worker(i).quiesce())
        .collect();
    let keys: Vec<u64> = (0..48u64).map(|i| i * 1_361).collect();
    let mut index_of = HashMap::new();
    for &key in &keys {
        index_of.insert(conn.send(&insert(key)).unwrap(), key);
    }
    conn.flush().unwrap();
    let stats = engine.db().stats();
    let deadline = Instant::now() + Duration::from_secs(10);
    // Handshake plus every insert decoded.
    while stats.server().snapshot().frames_decoded < keys.len() as u64 + 1 {
        assert!(Instant::now() < deadline, "requests never decoded");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stopper = std::thread::spawn(move || {
        let mut server = server;
        server.stop();
    });
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !stopper.is_finished(),
        "stop returned with requests unanswered"
    );
    drop(resumers);
    stopper.join().unwrap();
    // Every queued request was executed and answered before the close.
    for _ in &keys {
        let (id, response) = conn.recv().expect("answered before close");
        assert!(index_of.remove(&id).is_some(), "unknown id {id}");
        assert_eq!(response, Response::Ok(vec![ActionOutput::empty()]));
    }
    assert!(
        conn.recv().is_err(),
        "connection closed after the last answer"
    );
    let mut session = engine.session();
    for key in keys {
        let got = session.run(Request::single(Op::Get { table: KV, key }));
        assert_eq!(
            got,
            Response::Ok(vec![ActionOutput::with_rows(vec![record(key)])])
        );
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "plp-server-pipeline-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

fn strict_config(dir: &Path) -> EngineConfig {
    EngineConfig::new(Design::PlpRegular)
        .with_partitions(2)
        .with_durability(DurabilityMode::Strict)
        .with_log_dir(dir)
}

#[test]
fn strict_acks_survive_recovery_of_a_log_copied_at_the_ack() {
    let dir = temp_dir("strict-ack");
    let (engine, mut server) = serve_config(strict_config(&dir));
    let mut conn = connect(&server);
    // Pipelined, so acks come back while later inserts are still in flight;
    // each ack snapshots the log as it is at that instant.
    let keys: Vec<u64> = (0..12u64).map(|i| 7 + i * 4_099).collect();
    let mut key_of = HashMap::new();
    for &key in &keys {
        key_of.insert(conn.send(&insert(key)).unwrap(), key);
    }
    conn.flush().unwrap();
    let mut snapshots = Vec::new();
    for n in 0..keys.len() {
        let (id, response) = conn.recv().expect("ack");
        let copy = dir.with_extension(format!("ack{n}"));
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(&dir, &copy);
        assert_eq!(response, Response::Ok(vec![ActionOutput::empty()]));
        snapshots.push((key_of[&id], copy));
    }
    server.stop();
    drop(engine);
    let mut acked = Vec::new();
    for (key, copy) in snapshots {
        acked.push(key);
        let (recovered, _) =
            Engine::recover(&copy, strict_config(&copy), &kv_schema()).expect("recover");
        let mut session = recovered.session();
        for &k in &acked {
            let got = session.run(Request::single(Op::Get { table: KV, key: k }));
            assert_eq!(
                got,
                Response::Ok(vec![ActionOutput::with_rows(vec![record(k)])]),
                "key {k} acknowledged before the copy was taken"
            );
        }
        drop(session);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_device_failure_never_acknowledges_a_commit() {
    let dir = temp_dir("device-fail");
    let (engine, mut server) = serve_config(strict_config(&dir));
    let mut conn = connect(&server);
    engine.db().log_manager().inject_device_write_failure();
    let ops: Vec<Op> = (0..16u64).map(|i| insert(100 + i * 977)).collect();
    for response in pipeline(&mut conn, &ops) {
        assert_eq!(
            response.error_code(),
            Some(ErrorCode::Storage),
            "{response:?}"
        );
    }
    // Later commits fail at once: the log has a hole where the lost batch
    // should be.
    let response = conn.call(&insert(5)).unwrap();
    assert_eq!(response.error_code(), Some(ErrorCode::Storage));
    server.stop();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
