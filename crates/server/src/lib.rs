//! The network front end: wire protocol + connection server.
//!
//! The paper's prototype is embedded in Shore-MT's threads; this crate is
//! what turns the reproduction into a servable system.  It has two halves:
//!
//! * [`frame`] — the framed binary protocol: length-prefixed, CRC-protected
//!   frames carrying one declarative [`Op`](plp_core::Op) per request and one
//!   [`Response`](plp_core::Response) per reply, matched by request id so a
//!   connection can pipeline many requests and receive replies out of order.
//! * [`server`] — the connection server: an accept thread feeding
//!   per-connection reader threads and a single shared writer thread.  On
//!   a partitioned engine each reader hands every request straight to the
//!   partition worker that owns it, which runs the whole transaction and
//!   answers the writer; on a conventional engine a fixed executor pool
//!   runs requests through [`Session::run`](plp_core::engine::Session).
//!   No thread-per-request: a connection's in-flight requests interleave
//!   with every other connection's on the workers (or executors).
//!
//! The byte-level layout, opcode/error-code tables and connection lifecycle
//! are documented in `docs/server.md`; the `error_codes_are_pinned` and
//! frame round-trip tests pin the wire contract.

#![forbid(unsafe_code)]

pub mod frame;
pub mod server;

pub use frame::{
    read_frame, Frame, OpCode, ReadOutcome, SoftError, MAGIC, MAX_FRAME, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};
