//! Declarative, value-typed transaction requests.
//!
//! The closure-based [`TransactionPlan`](crate::TransactionPlan) API is the
//! richest way to express a transaction — arbitrary logic, multi-stage
//! rendezvous — but a boxed `FnOnce` cannot cross a process boundary.  This
//! module is the wire-friendly subset: a [`Request`] is a list of [`Op`]
//! values (point reads, writes, deletes and small range scans), each of which
//! *lowers* onto one routed [`Action`](crate::Action) and executes through
//! exactly the same plan/dispatch machinery as closure plans.  In-process
//! callers ([`Session::run`](crate::engine::Session::run)) and the
//! `plp-server` wire decoder share this surface verbatim, so a request
//! behaves identically whether it was built in this process or decoded from
//! a TCP frame.
//!
//! Errors cross the wire as a stable [`ErrorCode`]: every
//! [`EngineError`] variant has a pinned numeric code (see the
//! `error_codes_are_pinned` test) so the protocol cannot silently renumber.

use crate::action::{Action, ActionOutput, TransactionPlan};
use crate::catalog::TableId;
use crate::database::Database;
use crate::error::EngineError;

/// One declarative data operation.  Each op targets a single table and routes
/// by its primary key (`lo` for range reads), so the partitioned engines ship
/// it to the worker owning that key — the same routing rule closure plans use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Point read by primary key.  Output: `rows = [record]` when found,
    /// empty when not.
    Get { table: TableId, key: u64 },
    /// Insert a new record (with an optional secondary-index key).  Fails the
    /// transaction with [`ErrorCode::DuplicateKey`] if the key exists.
    Insert {
        table: TableId,
        key: u64,
        record: Vec<u8>,
        secondary_key: Option<u64>,
    },
    /// Overwrite an existing record's bytes in place.  The replacement must
    /// have the record's exact length (records never move on update); a
    /// length mismatch aborts the transaction.  Output: `values = [1]` when
    /// the key existed, `[0]` when it did not.
    Update {
        table: TableId,
        key: u64,
        record: Vec<u8>,
    },
    /// Delete by primary key (with the secondary key to unlink, if the table
    /// has a secondary index).  Output: `values = [1]` if a record was
    /// removed, `[0]` otherwise.
    Delete {
        table: TableId,
        key: u64,
        secondary_key: Option<u64>,
    },
    /// Inclusive primary-key range scan.  Output: `values = keys`,
    /// `rows = records`, index-aligned.
    ///
    /// On the partitioned designs a range may not span a
    /// partition-granularity unit (`lo / granularity == hi / granularity`,
    /// see [`TableSpec::partition_granularity`](crate::TableSpec)): the scan
    /// runs latch-free on the worker owning `lo`, and granularity units are
    /// the only ranges guaranteed to stay whole under repartitioning.
    /// [`Session::run`](crate::engine::Session::run) rejects wider ranges
    /// with [`ErrorCode::BadRequest`] instead of risking an unowned page
    /// access.
    ReadRange { table: TableId, lo: u64, hi: u64 },
}

impl Op {
    /// The table this op touches.
    pub fn table(&self) -> TableId {
        match *self {
            Op::Get { table, .. }
            | Op::Insert { table, .. }
            | Op::Update { table, .. }
            | Op::Delete { table, .. }
            | Op::ReadRange { table, .. } => table,
        }
    }

    /// The key the op routes by: the primary key, or `lo` for range scans.
    pub fn routing_key(&self) -> u64 {
        match *self {
            Op::Get { key, .. }
            | Op::Insert { key, .. }
            | Op::Update { key, .. }
            | Op::Delete { key, .. } => key,
            Op::ReadRange { lo, .. } => lo,
        }
    }

    /// Lower this op onto one routed closure action.
    pub fn lower(self) -> Action {
        let table = self.table();
        let routing_key = self.routing_key();
        Action::new(table, routing_key, move |ctx| self.apply(ctx))
    }

    /// Execute the op's semantics against a [`DataContext`](crate::DataContext).
    /// Shared by [`Op::lower`] (one action per op) and
    /// [`Request::lower_fused`] (all ops in one action).
    pub fn apply(self, ctx: &mut dyn crate::DataContext) -> Result<ActionOutput, EngineError> {
        match self {
            Op::Get { table, key } => {
                let row = ctx.read(table, key)?;
                Ok(ActionOutput::with_rows(row.into_iter().collect()))
            }
            Op::Insert {
                table,
                key,
                record,
                secondary_key,
            } => {
                ctx.insert(table, key, &record, secondary_key)?;
                Ok(ActionOutput::empty())
            }
            Op::Update { table, key, record } => {
                // `DataContext::update` hands the closure `&mut [u8]` and no
                // way to fail, so a length mismatch is captured in a flag and
                // converted to an abort after the call (the record is left
                // untouched in that case).
                let mut mismatch = None;
                let found = ctx.update(table, key, &mut |r| {
                    if r.len() == record.len() {
                        r.copy_from_slice(&record);
                    } else {
                        mismatch = Some(r.len());
                    }
                })?;
                if let Some(existing) = mismatch {
                    return Err(EngineError::Abort(format!(
                        "update record length {} != existing {existing} for key {key} \
                         in table {table:?}",
                        record.len()
                    )));
                }
                Ok(ActionOutput::with_values(vec![u64::from(found)]))
            }
            Op::Delete {
                table,
                key,
                secondary_key,
            } => {
                let removed = ctx.delete(table, key, secondary_key)?;
                Ok(ActionOutput::with_values(vec![u64::from(removed)]))
            }
            Op::ReadRange { table, lo, hi } => {
                let mut out = ActionOutput::empty();
                for (k, row) in ctx.range_read(table, lo, hi)? {
                    out.values.push(k);
                    out.rows.push(row);
                }
                Ok(out)
            }
        }
    }
}

/// One declarative transaction: a set of independent ops executed atomically.
///
/// All ops form a single plan stage, so the partitioned engines batch them
/// per owning worker and run them in parallel; there is no cross-op data
/// flow (transactions that need one belong on the closure API).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    pub ops: Vec<Op>,
}

impl Request {
    pub fn new(ops: Vec<Op>) -> Self {
        Self { ops }
    }

    /// A single-op transaction (what each wire frame carries).
    pub fn single(op: Op) -> Self {
        Self { ops: vec![op] }
    }

    /// Lower onto the plan/dispatch machinery shared with closure plans.
    pub fn lower(self) -> TransactionPlan {
        TransactionPlan::parallel(self.ops.into_iter().map(Op::lower).collect())
    }

    /// Lower all ops into a *single* action routed by the first op's key,
    /// with the per-op outputs merged in op order (rows and values
    /// concatenated).  One action means one dispatch instead of one per op —
    /// the same shape hand-written closure transactions use.
    ///
    /// Safety contract: the caller asserts that every key the ops touch is
    /// co-located with the first op's routing key under *any* repartitioning
    /// — i.e. all tables are alignment-partitioned with the routing table and
    /// all keys fall in the routing key's aligned slice (as TATP's
    /// per-subscriber profile does).  `Session::run` never uses this lowering
    /// for wire requests, which carry no such guarantee.
    pub fn lower_fused(self) -> TransactionPlan {
        let Some(first) = self.ops.first() else {
            return TransactionPlan::empty();
        };
        let (table, routing_key) = (first.table(), first.routing_key());
        let ops = self.ops;
        TransactionPlan::single(Action::new(table, routing_key, move |ctx| {
            let mut out = ActionOutput::empty();
            for op in ops {
                let one = op.apply(ctx)?;
                out.rows.extend(one.rows);
                out.values.extend(one.values);
            }
            Ok(out)
        }))
    }
}

/// The checks lowering cannot perform, shared by
/// [`Session::run`](crate::engine::Session::run) and the single-hop wire
/// path ([`PartitionManager::submit`](crate::PartitionManager::submit)) so
/// both answer a bad request identically: the request must carry ops, the
/// referenced tables must exist, and on partitioned designs a range scan may
/// not leave the granularity unit that routes it (a wider range could touch
/// pages owned by another worker latch-free — see [`Op::ReadRange`]).
/// Returns the rejection, or `None` when the ops may run.
pub(crate) fn validate(db: &Database, partitioned: bool, ops: &[Op]) -> Option<Response> {
    if ops.is_empty() {
        return Some(Response::err(ErrorCode::BadRequest, "empty request"));
    }
    for op in ops {
        let table = match db.table(op.table()) {
            Ok(t) => t,
            Err(e) => return Some(Response::err((&e).into(), e.to_string())),
        };
        if let Op::ReadRange { lo, hi, .. } = *op {
            if lo > hi {
                return Some(Response::err(
                    ErrorCode::BadRequest,
                    format!("range lo {lo} > hi {hi}"),
                ));
            }
            let granularity = table.spec().partition_granularity.max(1);
            if partitioned && lo / granularity != hi / granularity {
                return Some(Response::err(
                    ErrorCode::BadRequest,
                    format!(
                        "range [{lo}, {hi}] spans partition-granularity units \
                         (granularity {granularity}) on a partitioned design"
                    ),
                ));
            }
        }
    }
    None
}

/// Wire-stable numeric error codes.
///
/// Codes are part of the network protocol: they are pinned forever (see the
/// `error_codes_are_pinned` test) and new variants may only *append*.  The
/// enum is `#[non_exhaustive]` so protocol peers must tolerate codes they do
/// not know yet.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Benign transaction abort (lock timeout, user abort, length mismatch).
    Abort,
    /// Unique-key violation on insert.
    DuplicateKey,
    /// The referenced table does not exist.
    NoSuchTable,
    /// Underlying storage failure.
    Storage,
    /// The engine is shut down.
    Shutdown,
    /// Crash recovery failed.
    Recovery,
    /// The request itself is malformed (empty, undecodable frame, or a range
    /// the partitioned engine cannot serve safely).
    BadRequest,
}

impl ErrorCode {
    /// Every variant, for exhaustive tests and tables.
    pub const ALL: [ErrorCode; 7] = [
        ErrorCode::Abort,
        ErrorCode::DuplicateKey,
        ErrorCode::NoSuchTable,
        ErrorCode::Storage,
        ErrorCode::Shutdown,
        ErrorCode::Recovery,
        ErrorCode::BadRequest,
    ];

    /// The pinned wire code.
    pub const fn code(self) -> u16 {
        match self {
            ErrorCode::Abort => 1,
            ErrorCode::DuplicateKey => 2,
            ErrorCode::NoSuchTable => 3,
            ErrorCode::Storage => 4,
            ErrorCode::Shutdown => 5,
            ErrorCode::Recovery => 6,
            ErrorCode::BadRequest => 7,
        }
    }

    /// Decode a wire code; `None` for codes this build does not know.
    pub fn from_code(code: u16) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|e| e.code() == code)
    }

    /// Whether the error is a benign transaction abort (mirrors
    /// [`EngineError::is_abort`]).
    pub fn is_abort(self) -> bool {
        matches!(self, ErrorCode::Abort | ErrorCode::DuplicateKey)
    }
}

impl From<&EngineError> for ErrorCode {
    fn from(e: &EngineError) -> Self {
        match e {
            EngineError::Abort(_) => ErrorCode::Abort,
            EngineError::DuplicateKey { .. } => ErrorCode::DuplicateKey,
            EngineError::NoSuchTable(_) => ErrorCode::NoSuchTable,
            EngineError::Storage(_) => ErrorCode::Storage,
            EngineError::Shutdown => ErrorCode::Shutdown,
            EngineError::Recovery(_) => ErrorCode::Recovery,
        }
    }
}

impl From<EngineError> for ErrorCode {
    fn from(e: EngineError) -> Self {
        (&e).into()
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Abort => "abort",
            ErrorCode::DuplicateKey => "duplicate_key",
            ErrorCode::NoSuchTable => "no_such_table",
            ErrorCode::Storage => "storage",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Recovery => "recovery",
            ErrorCode::BadRequest => "bad_request",
        };
        write!(f, "{name}({})", self.code())
    }
}

/// Outcome of one [`Request`]: the per-op outputs in op order, or the error
/// that aborted the transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The transaction committed; one [`ActionOutput`] per op, in op order.
    Ok(Vec<ActionOutput>),
    /// The transaction aborted or failed.
    Err { code: ErrorCode, message: String },
}

impl Response {
    pub fn err(code: ErrorCode, message: impl Into<String>) -> Self {
        Response::Err {
            code,
            message: message.into(),
        }
    }

    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok(_))
    }

    /// The outputs, or `None` for an error response.
    pub fn outputs(&self) -> Option<&[ActionOutput]> {
        match self {
            Response::Ok(outputs) => Some(outputs),
            Response::Err { .. } => None,
        }
    }

    /// The error code, or `None` for an ok response.
    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            Response::Ok(_) => None,
            Response::Err { code, .. } => Some(*code),
        }
    }
}

impl From<Result<Vec<ActionOutput>, EngineError>> for Response {
    fn from(r: Result<Vec<ActionOutput>, EngineError>) -> Self {
        match r {
            Ok(outputs) => Response::Ok(outputs),
            Err(e) => Response::Err {
                code: (&e).into(),
                message: e.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_storage::{PageId, StorageError};

    #[test]
    fn error_codes_are_pinned() {
        // The wire contract: these numbers may never change, only grow.
        let pinned: [(ErrorCode, u16); 7] = [
            (ErrorCode::Abort, 1),
            (ErrorCode::DuplicateKey, 2),
            (ErrorCode::NoSuchTable, 3),
            (ErrorCode::Storage, 4),
            (ErrorCode::Shutdown, 5),
            (ErrorCode::Recovery, 6),
            (ErrorCode::BadRequest, 7),
        ];
        assert_eq!(pinned.len(), ErrorCode::ALL.len(), "pin every variant");
        for (code, wire) in pinned {
            assert_eq!(code.code(), wire, "{code:?} renumbered");
            assert_eq!(ErrorCode::from_code(wire), Some(code), "{wire} round trip");
        }
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(ErrorCode::from_code(999), None);
    }

    #[test]
    fn every_engine_error_maps_to_a_code() {
        let cases: Vec<(EngineError, ErrorCode)> = vec![
            (EngineError::Abort("x".into()), ErrorCode::Abort),
            (
                EngineError::DuplicateKey {
                    table: TableId(1),
                    key: 9,
                },
                ErrorCode::DuplicateKey,
            ),
            (EngineError::NoSuchTable(TableId(2)), ErrorCode::NoSuchTable),
            (
                EngineError::Storage(StorageError::PageNotFound(PageId(3))),
                ErrorCode::Storage,
            ),
            (EngineError::Shutdown, ErrorCode::Shutdown),
            (EngineError::Recovery("log".into()), ErrorCode::Recovery),
        ];
        for (err, expect) in cases {
            assert_eq!(ErrorCode::from(&err), expect);
            assert_eq!(
                ErrorCode::from(&err).is_abort(),
                err.is_abort(),
                "abort classification must agree for {err:?}"
            );
        }
    }

    #[test]
    fn ops_route_by_primary_key() {
        let t = TableId(7);
        assert_eq!(Op::Get { table: t, key: 5 }.routing_key(), 5);
        assert_eq!(
            Op::ReadRange {
                table: t,
                lo: 96,
                hi: 191
            }
            .routing_key(),
            96
        );
        let req = Request::new(vec![
            Op::Get { table: t, key: 5 },
            Op::Delete {
                table: t,
                key: 8,
                secondary_key: None,
            },
        ]);
        let plan = req.lower();
        assert_eq!(plan.action_count(), 2);
        assert_eq!(plan.actions[0].routing_key, 5);
        assert_eq!(plan.actions[1].routing_key, 8);
        assert_eq!(plan.actions[0].table, t);
        assert!(plan.then.is_none(), "declarative plans are single-stage");
    }

    #[test]
    fn fused_lowering_routes_by_first_op() {
        let t = TableId(3);
        let req = Request::new(vec![
            Op::Get { table: t, key: 40 },
            Op::Get { table: t, key: 41 },
            Op::ReadRange {
                table: t,
                lo: 40,
                hi: 47,
            },
        ]);
        let plan = req.lower_fused();
        assert_eq!(plan.action_count(), 1);
        assert_eq!(plan.actions[0].table, t);
        assert_eq!(plan.actions[0].routing_key, 40);
        assert_eq!(Request::default().lower_fused().action_count(), 0);
    }

    #[test]
    fn response_accessors() {
        let ok = Response::Ok(vec![ActionOutput::with_values(vec![1])]);
        assert!(ok.is_ok());
        assert_eq!(ok.outputs().unwrap().len(), 1);
        assert_eq!(ok.error_code(), None);
        let err = Response::err(ErrorCode::BadRequest, "empty");
        assert!(!err.is_ok());
        assert_eq!(err.outputs(), None);
        assert_eq!(err.error_code(), Some(ErrorCode::BadRequest));
        let from: Response = Err::<Vec<ActionOutput>, _>(EngineError::Shutdown).into();
        assert_eq!(from.error_code(), Some(ErrorCode::Shutdown));
    }
}
