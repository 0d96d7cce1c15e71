//! Output checks.  Each one is a pure function of what the benchmark asked
//! for and what came back, so the unit tests below can feed it a wrong
//! output and see it fail.
//!
//! Expectations rest only on fields the workloads never rewrite: the mix
//! rewrites subscribers' `BITS` and `VLR_LOCATION` and the second u64 of
//! special-facility rows, and loaded call-forwarding rows carry
//! `s_id * 32 + start_time` in their first u64, not their key.

use plp_core::{ActionOutput, Engine, ErrorCode, Op, Request, Response, TransactionPlan};
use plp_instrument::ServerStatsSnapshot;
use plp_workloads::fields::get_u64;
use plp_workloads::tatp::{
    access_info_key, special_facility_key, sub_fields, Tatp, ACCESS_INFO, CALL_FORWARDING,
    SUBSCRIBER, SUB_NBR_OFFSET,
};
use plp_workloads::tpcb::{
    account_key, teller_key, ACCOUNT, ACCOUNTS_PER_BRANCH, BALANCE_OFFSET, BRANCH, HISTORY,
    HISTORY_SLOTS, TELLER, TELLERS_PER_BRANCH,
};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Size of the access-info, special-facility and call-forwarding rows.
const SMALL_ROW: usize = 40;
/// Call-forwarding start times the TATP mix inserts and deletes.
const START_TIMES: [u64; 3] = [0, 8, 16];

/// One TATP transaction, chosen by the benchmark so it knows what the
/// result must be.  The percentages are those of `Tatp::next_transaction`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TatpTxn {
    GetSubscriberData { s_id: u64 },
    GetNewDestination { s_id: u64, sf_type: u64 },
    GetAccessData { s_id: u64, ai_type: u64 },
    UpdateSubscriberData { s_id: u64, sf_type: u64, bits: u64 },
    UpdateLocation { s_id: u64, vlr: u64 },
    InsertCallForwarding { s_id: u64, start_time: u64 },
    DeleteCallForwarding { s_id: u64, start_time: u64 },
}

impl TatpTxn {
    pub fn draw(tatp: &Tatp, rng: &mut ChaCha8Rng) -> TatpTxn {
        use TatpTxn::*;
        let s_id = tatp.pick_subscriber(rng);
        match rng.gen_range(0..100u32) {
            0..=34 => GetSubscriberData { s_id },
            35..=44 => GetNewDestination {
                s_id,
                sf_type: rng.gen_range(0..4),
            },
            45..=79 => GetAccessData {
                s_id,
                ai_type: rng.gen_range(0..4),
            },
            80..=81 => UpdateSubscriberData {
                s_id,
                sf_type: rng.gen_range(0..4),
                bits: rng.gen(),
            },
            82..=95 => UpdateLocation {
                s_id,
                vlr: rng.gen(),
            },
            96..=97 => InsertCallForwarding {
                s_id,
                start_time: START_TIMES[rng.gen_range(0..3)],
            },
            _ => DeleteCallForwarding {
                s_id,
                start_time: START_TIMES[rng.gen_range(0..3)],
            },
        }
    }

    /// The plan, built with `Tatp`'s public constructors.
    pub fn plan(self, tatp: &Tatp) -> TransactionPlan {
        use TatpTxn::*;
        let sub_nbr = |s_id: u64| s_id + SUB_NBR_OFFSET;
        match self {
            GetSubscriberData { s_id } => tatp.get_subscriber_data(s_id),
            GetNewDestination { s_id, sf_type } => tatp.get_new_destination(s_id, sf_type),
            GetAccessData { s_id, ai_type } => tatp.get_access_data(s_id, ai_type),
            UpdateSubscriberData {
                s_id,
                sf_type,
                bits,
            } => tatp.update_subscriber_data(s_id, sf_type, bits),
            UpdateLocation { s_id, vlr } => tatp.update_location(sub_nbr(s_id), vlr),
            InsertCallForwarding { s_id, start_time } => {
                tatp.insert_call_forwarding(sub_nbr(s_id), 0, start_time)
            }
            DeleteCallForwarding { s_id, start_time } => {
                tatp.delete_call_forwarding(sub_nbr(s_id), 0, start_time)
            }
        }
    }

    /// Check a committed transaction's outputs.
    pub fn check(self, outputs: &[ActionOutput]) -> Result<(), String> {
        use TatpTxn::*;
        let fail = |what: String| Err(format!("{self:?}: {what}"));
        match self {
            GetSubscriberData { s_id } => {
                let [out] = outputs else {
                    return fail(format!("{} outputs, want 1", outputs.len()));
                };
                let [row] = out.rows.as_slice() else {
                    return fail(format!("{} rows, want 1", out.rows.len()));
                };
                check_subscriber_row(s_id, row).or_else(fail)
            }
            GetNewDestination { s_id, sf_type } => {
                let [out] = outputs else {
                    return fail(format!("{} outputs, want 1", outputs.len()));
                };
                let Some((sf, forwards)) = out.rows.split_first() else {
                    return fail("no special-facility row".into());
                };
                let key = special_facility_key(s_id, sf_type);
                if sf.len() != SMALL_ROW || get_u64(sf, 0) != key {
                    return fail(format!(
                        "special-facility row does not start with key {key}"
                    ));
                }
                if forwards.len() > START_TIMES.len() {
                    return fail(format!(
                        "{} call-forwarding rows, want <= 3",
                        forwards.len()
                    ));
                }
                if forwards.iter().any(|r| r.len() != SMALL_ROW) {
                    return fail("call-forwarding row of the wrong size".into());
                }
                Ok(())
            }
            GetAccessData { s_id, ai_type } => {
                let [out] = outputs else {
                    return fail(format!("{} outputs, want 1", outputs.len()));
                };
                let key = access_info_key(s_id, ai_type);
                match out.rows.as_slice() {
                    [row] if row.len() == SMALL_ROW && get_u64(row, 0) == key => Ok(()),
                    rows => fail(format!(
                        "want one access-info row starting with {key}, got (len, head) {:?}",
                        heads(rows)
                    )),
                }
            }
            UpdateSubscriberData { .. } => match outputs {
                [a, b] if a.values == [1] && b.values == [1] => Ok(()),
                _ => fail(format!("want both rows found ([1], [1]), got {outputs:?}")),
            },
            UpdateLocation { .. } => match outputs {
                [out] if out.rows.is_empty() && out.values.is_empty() => Ok(()),
                _ => fail(format!("want one empty output, got {outputs:?}")),
            },
            InsertCallForwarding { s_id, .. } | DeleteCallForwarding { s_id, .. } => {
                match outputs {
                    [probe, change]
                        if probe.values == [s_id]
                            && (change.values == [0] || change.values == [1]) =>
                    {
                        Ok(())
                    }
                    _ => fail(format!(
                        "want the probed s_id [{s_id}] then [0] or [1], got {outputs:?}"
                    )),
                }
            }
        }
    }
}

/// Rows as `(length, first u64)` pairs, for failure messages.
fn heads(rows: &[Vec<u8>]) -> Vec<(usize, u64)> {
    rows.iter()
        .map(|r| (r.len(), if r.len() >= 8 { get_u64(r, 0) } else { 0 }))
        .collect()
}

/// A subscriber row: 100 bytes whose `SUB_NBR`, `HEX` and `MSC_LOCATION`
/// match the load-time record (the mix rewrites only `BITS` and
/// `VLR_LOCATION`).
pub fn check_subscriber_row(s_id: u64, row: &[u8]) -> Result<(), String> {
    if row.len() != sub_fields::RECORD_SIZE {
        return Err(format!(
            "subscriber {s_id}: row of {} bytes, want {}",
            row.len(),
            sub_fields::RECORD_SIZE
        ));
    }
    let want = Tatp::subscriber_record(s_id);
    for (field, at) in [
        ("SUB_NBR", sub_fields::SUB_NBR),
        ("HEX", sub_fields::HEX),
        ("MSC_LOCATION", sub_fields::MSC_LOCATION),
    ] {
        if get_u64(row, at) != get_u64(&want, at) {
            return Err(format!(
                "subscriber {s_id}: {field} is {}, want {}",
                get_u64(row, at),
                get_u64(&want, at)
            ));
        }
    }
    Ok(())
}

/// Check one wire response against the `TatpOpMix` op it answers.  A
/// duplicate-key insert and a delete that finds nothing are normal TATP
/// outcomes; every other error is a failure.
pub fn check_wire_response(op: &Op, response: &Response) -> Result<(), String> {
    let outputs = match response {
        Response::Ok(outputs) => outputs.as_slice(),
        Response::Err {
            code: ErrorCode::DuplicateKey,
            ..
        } if matches!(op, Op::Insert { table, .. } if *table == CALL_FORWARDING) => return Ok(()),
        Response::Err { code, message } => {
            return Err(format!("{op:?}: error {code}: {message}"));
        }
    };
    let fail = |what: String| Err(format!("{op:?}: {what}"));
    let [out] = outputs else {
        return fail(format!("{} outputs, want 1", outputs.len()));
    };
    match op {
        Op::Get { table, key } if *table == SUBSCRIBER => match out.rows.as_slice() {
            [row] => check_subscriber_row(*key, row),
            rows => fail(format!("{} rows, want 1", rows.len())),
        },
        Op::Get { table, key } if *table == ACCESS_INFO => match out.rows.as_slice() {
            [row] if row.len() == SMALL_ROW && get_u64(row, 0) == *key => Ok(()),
            rows => fail(format!(
                "want one row starting with its key, got (len, head) {:?}",
                heads(rows)
            )),
        },
        Op::ReadRange { table, lo, hi } if *table == CALL_FORWARDING => {
            let keys = &out.values;
            if keys.len() != out.rows.len() || keys.len() > 4 * START_TIMES.len() {
                return fail(format!(
                    "{} keys and {} rows, want equal and <= 12",
                    keys.len(),
                    out.rows.len()
                ));
            }
            if keys.iter().any(|k| k < lo || k > hi) || keys.windows(2).any(|w| w[0] >= w[1]) {
                return fail(format!("keys {keys:?} not ascending within [{lo}, {hi}]"));
            }
            if out.rows.iter().any(|r| r.len() != SMALL_ROW) {
                return fail("call-forwarding row of the wrong size".into());
            }
            Ok(())
        }
        Op::Update { table, .. } if *table == SUBSCRIBER => match out.values.as_slice() {
            [1] => Ok(()),
            v => fail(format!("values {v:?}, want [1]")),
        },
        Op::Insert { table, .. } if *table == CALL_FORWARDING => {
            if out.rows.is_empty() && out.values.is_empty() {
                Ok(())
            } else {
                fail(format!("want an empty output, got {out:?}"))
            }
        }
        Op::Delete { table, .. } if *table == CALL_FORWARDING => match out.values.as_slice() {
            [0] | [1] => Ok(()),
            v => fail(format!("values {v:?}, want [0] or [1]")),
        },
        _ => fail("op is not part of the TatpOpMix".into()),
    }
}

/// The server decoded and answered exactly the frames the clients sent,
/// and none of them failed to decode.
pub fn check_server_counters(frames_sent: u64, d: &ServerStatsSnapshot) -> Result<(), String> {
    if d.frames_decoded != frames_sent || d.responses_sent != frames_sent || d.decode_errors != 0 {
        return Err(format!(
            "server counters: {} frames decoded, {} responses sent, {} decode errors; \
             clients sent {frames_sent} frames",
            d.frames_decoded, d.responses_sent, d.decode_errors
        ));
    }
    Ok(())
}

/// Every balance and every history row of a TPC-B database, per branch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TpcbState {
    pub branch: Vec<u64>,
    pub teller: Vec<u64>,
    pub account: Vec<u64>,
    /// Per branch: number of history rows and wrapping sum of their deltas.
    pub history: Vec<(u64, u64)>,
}

impl TpcbState {
    /// Read the whole database through `Session::run` range reads.
    pub fn read(engine: &Engine, branches: u64) -> Result<TpcbState, String> {
        let mut session = engine.session();
        let mut scan = |table, lo: u64, hi: u64| -> Result<Vec<(u64, Vec<u8>)>, String> {
            match session.run(Request::single(Op::ReadRange { table, lo, hi })) {
                Response::Ok(mut outputs) if outputs.len() == 1 => {
                    let out = outputs.pop().expect("one output");
                    Ok(out.values.into_iter().zip(out.rows).collect())
                }
                other => Err(format!("scan of {table:?} [{lo}, {hi}]: {other:?}")),
            }
        };
        let balances = |rows: Vec<(u64, Vec<u8>)>, want: u64| -> Result<Vec<u64>, String> {
            if rows.len() as u64 != want {
                return Err(format!("scan returned {} rows, want {want}", rows.len()));
            }
            Ok(rows
                .iter()
                .map(|(_, r)| get_u64(r, BALANCE_OFFSET))
                .collect())
        };
        let mut state = TpcbState {
            branch: balances(scan(BRANCH, 0, branches - 1)?, branches)?,
            ..TpcbState::default()
        };
        for b in 0..branches {
            state.teller.extend(balances(
                scan(
                    TELLER,
                    teller_key(b, 0),
                    teller_key(b, TELLERS_PER_BRANCH - 1),
                )?,
                TELLERS_PER_BRANCH,
            )?);
            state.account.extend(balances(
                scan(
                    ACCOUNT,
                    account_key(b, 0),
                    account_key(b, ACCOUNTS_PER_BRANCH - 1),
                )?,
                ACCOUNTS_PER_BRANCH,
            )?);
            let rows = scan(HISTORY, b * HISTORY_SLOTS, (b + 1) * HISTORY_SLOTS - 1)?;
            if let Some((key, _)) = rows.iter().find(|(_, r)| get_u64(r, 16) != b) {
                return Err(format!("history row {key} does not name branch {b}"));
            }
            let sum = rows
                .iter()
                .fold(0u64, |acc, (_, r)| acc.wrapping_add(get_u64(r, 24)));
            state.history.push((rows.len() as u64, sum));
        }
        Ok(state)
    }
}

/// What the TPC-B clients committed: per branch, the wrapping sum of the
/// committed deltas, and the number of committed transactions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TpcbTally {
    pub delta: Vec<u64>,
    pub committed: u64,
}

impl TpcbTally {
    pub fn new(branches: u64) -> Self {
        Self {
            delta: vec![0; branches as usize],
            committed: 0,
        }
    }

    pub fn commit(&mut self, branch: u64, delta: i64) {
        let d = &mut self.delta[branch as usize];
        *d = d.wrapping_add(delta as u64);
        self.committed += 1;
    }

    pub fn merge(&mut self, other: &TpcbTally) {
        for (a, b) in self.delta.iter_mut().zip(&other.delta) {
            *a = a.wrapping_add(*b);
        }
        self.committed += other.committed;
    }
}

/// Per branch, with wrapping arithmetic, the branch delta, the teller sum,
/// the account sum and the history sum each equal the sum of committed
/// deltas; the history holds one row per committed transaction.
pub fn check_tpcb(base: &TpcbState, now: &TpcbState, tally: &TpcbTally) -> Result<(), String> {
    let branches = tally.delta.len();
    let diff = |a: &[u64], b: &[u64]| -> u64 {
        a.iter()
            .zip(b)
            .fold(0u64, |acc, (x, y)| acc.wrapping_add(x.wrapping_sub(*y)))
    };
    let t = TELLERS_PER_BRANCH as usize;
    let a = ACCOUNTS_PER_BRANCH as usize;
    for (b, &want) in tally.delta.iter().enumerate() {
        let sums = [
            (
                "branch delta",
                diff(&now.branch[b..=b], &base.branch[b..=b]),
            ),
            (
                "teller sum",
                diff(
                    &now.teller[b * t..(b + 1) * t],
                    &base.teller[b * t..(b + 1) * t],
                ),
            ),
            (
                "account sum",
                diff(
                    &now.account[b * a..(b + 1) * a],
                    &base.account[b * a..(b + 1) * a],
                ),
            ),
            (
                "history sum",
                now.history[b].1.wrapping_sub(base.history[b].1),
            ),
        ];
        for (what, got) in sums {
            if got != want {
                return Err(format!(
                    "tpcb branch {b}: {what} is {} but committed deltas sum to {}",
                    got as i64, want as i64
                ));
            }
        }
    }
    let rows: u64 = (0..branches)
        .map(|b| now.history[b].0 - base.history[b].0)
        .sum();
    if rows != tally.committed {
        return Err(format!(
            "tpcb: {rows} new history rows for {} committed transactions",
            tally.committed
        ));
    }
    Ok(())
}

/// The recovered engine reads what the engine read before shutdown, and
/// recovery found no transaction without an outcome.
pub fn check_recovered(
    before: &TpcbState,
    after: &TpcbState,
    loser_txns: u64,
) -> Result<(), String> {
    if loser_txns != 0 {
        return Err(format!("recovery: {loser_txns} loser transactions, want 0"));
    }
    if before != after {
        let differ = |a: &[u64], b: &[u64]| a.iter().zip(b).filter(|(x, y)| x != y).count();
        return Err(format!(
            "recovery: recovered state differs ({} branches, {} tellers, {} accounts, \
             history {:?} vs {:?})",
            differ(&before.branch, &after.branch),
            differ(&before.teller, &after.teller),
            differ(&before.account, &after.account),
            before.history,
            after.history
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_workloads::fields::set_u64;
    use plp_workloads::tatp::call_forwarding_key;

    fn rows(rows: Vec<Vec<u8>>) -> ActionOutput {
        ActionOutput::with_rows(rows)
    }

    fn values(v: Vec<u64>) -> ActionOutput {
        ActionOutput::with_values(v)
    }

    fn small(first: u64) -> Vec<u8> {
        let mut r = vec![0u8; SMALL_ROW];
        set_u64(&mut r, 0, first);
        r
    }

    /// A subscriber row as the mix leaves it: `BITS` and `VLR_LOCATION`
    /// rewritten, everything else as loaded.
    fn subscriber(s_id: u64) -> Vec<u8> {
        let mut r = Tatp::subscriber_record(s_id);
        set_u64(&mut r, sub_fields::BITS, 0xdead);
        set_u64(&mut r, sub_fields::VLR_LOCATION, 0xbeef);
        r
    }

    #[test]
    fn subscriber_row_ignores_rewritten_fields_and_catches_the_rest() {
        assert_eq!(check_subscriber_row(7, &subscriber(7)), Ok(()));
        for at in [
            sub_fields::SUB_NBR,
            sub_fields::HEX,
            sub_fields::MSC_LOCATION,
        ] {
            let mut bad = subscriber(7);
            set_u64(&mut bad, at, 1);
            assert!(check_subscriber_row(7, &bad).is_err(), "offset {at}");
        }
        assert!(check_subscriber_row(7, &subscriber(8)).is_err());
        assert!(check_subscriber_row(7, &subscriber(7)[..99]).is_err());
    }

    #[test]
    fn get_subscriber_data() {
        let t = TatpTxn::GetSubscriberData { s_id: 3 };
        assert_eq!(t.check(&[rows(vec![subscriber(3)])]), Ok(()));
        assert!(t.check(&[rows(vec![subscriber(4)])]).is_err());
        assert!(t.check(&[rows(vec![])]).is_err());
        assert!(t.check(&[]).is_err());
    }

    #[test]
    fn get_new_destination() {
        let t = TatpTxn::GetNewDestination {
            s_id: 5,
            sf_type: 2,
        };
        let sf = small(special_facility_key(5, 2));
        // Loaded call-forwarding rows carry s_id*32+start, not their key.
        let cf = small(5 * 32 + 8);
        assert_eq!(t.check(&[rows(vec![sf.clone()])]), Ok(()));
        assert_eq!(
            t.check(&[rows(vec![sf.clone(), cf.clone(), cf.clone(), cf.clone()])]),
            Ok(())
        );
        assert!(t
            .check(&[rows(vec![
                sf.clone(),
                cf.clone(),
                cf.clone(),
                cf.clone(),
                cf
            ])])
            .is_err());
        assert!(t
            .check(&[rows(vec![small(special_facility_key(5, 1))])])
            .is_err());
        assert!(t.check(&[rows(vec![])]).is_err());
    }

    #[test]
    fn get_access_data() {
        let t = TatpTxn::GetAccessData {
            s_id: 9,
            ai_type: 3,
        };
        assert_eq!(t.check(&[rows(vec![small(access_info_key(9, 3))])]), Ok(()));
        assert!(t
            .check(&[rows(vec![small(access_info_key(9, 2))])])
            .is_err());
        assert!(t.check(&[rows(vec![])]).is_err());
    }

    #[test]
    fn updates_and_call_forwarding_changes() {
        let u = TatpTxn::UpdateSubscriberData {
            s_id: 1,
            sf_type: 0,
            bits: 5,
        };
        assert_eq!(u.check(&[values(vec![1]), values(vec![1])]), Ok(()));
        assert!(u.check(&[values(vec![1]), values(vec![0])]).is_err());
        let l = TatpTxn::UpdateLocation { s_id: 1, vlr: 5 };
        assert_eq!(l.check(&[ActionOutput::empty()]), Ok(()));
        assert!(l.check(&[values(vec![1])]).is_err());
        for t in [
            TatpTxn::InsertCallForwarding {
                s_id: 4,
                start_time: 8,
            },
            TatpTxn::DeleteCallForwarding {
                s_id: 4,
                start_time: 8,
            },
        ] {
            assert_eq!(t.check(&[values(vec![4]), values(vec![0])]), Ok(()));
            assert_eq!(t.check(&[values(vec![4]), values(vec![1])]), Ok(()));
            assert!(t.check(&[values(vec![5]), values(vec![1])]).is_err());
            assert!(t.check(&[values(vec![4]), values(vec![2])]).is_err());
            assert!(t.check(&[values(vec![4])]).is_err());
        }
    }

    #[test]
    fn draw_follows_the_tatp_mix() {
        use rand::SeedableRng;
        let tatp = Tatp::new(1_000);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 20_000;
        let reads = (0..n)
            .filter(|_| {
                matches!(
                    TatpTxn::draw(&tatp, &mut rng),
                    TatpTxn::GetSubscriberData { .. }
                        | TatpTxn::GetNewDestination { .. }
                        | TatpTxn::GetAccessData { .. }
                )
            })
            .count();
        let share = reads as f64 / n as f64;
        assert!((share - 0.80).abs() < 0.02, "read share {share}");
    }

    #[test]
    fn wire_responses() {
        let ok = |o: ActionOutput| Response::Ok(vec![o]);
        let get_sub = Op::Get {
            table: SUBSCRIBER,
            key: 2,
        };
        assert_eq!(
            check_wire_response(&get_sub, &ok(rows(vec![subscriber(2)]))),
            Ok(())
        );
        assert!(check_wire_response(&get_sub, &ok(rows(vec![subscriber(3)]))).is_err());
        assert!(check_wire_response(&get_sub, &ok(rows(vec![]))).is_err());

        let get_ai = Op::Get {
            table: ACCESS_INFO,
            key: 11,
        };
        assert_eq!(
            check_wire_response(&get_ai, &ok(rows(vec![small(11)]))),
            Ok(())
        );
        assert!(check_wire_response(&get_ai, &ok(rows(vec![small(12)]))).is_err());

        let (lo, hi) = (call_forwarding_key(3, 0, 0), call_forwarding_key(3, 3, 23));
        let range = Op::ReadRange {
            table: CALL_FORWARDING,
            lo,
            hi,
        };
        let scan = |keys: Vec<u64>| {
            let mut o = ActionOutput::empty();
            o.rows = keys.iter().map(|&k| small(k)).collect();
            o.values = keys;
            ok(o)
        };
        assert_eq!(
            check_wire_response(&range, &scan(vec![lo, lo + 1, hi])),
            Ok(())
        );
        assert!(check_wire_response(&range, &scan(vec![lo + 1, lo])).is_err());
        assert!(check_wire_response(&range, &scan(vec![hi + 1])).is_err());

        let update = Op::Update {
            table: SUBSCRIBER,
            key: 2,
            record: subscriber(2),
        };
        assert_eq!(check_wire_response(&update, &ok(values(vec![1]))), Ok(()));
        assert!(check_wire_response(&update, &ok(values(vec![0]))).is_err());

        let insert = Op::Insert {
            table: CALL_FORWARDING,
            key: lo,
            record: small(lo),
            secondary_key: None,
        };
        let dup = Response::err(ErrorCode::DuplicateKey, "dup");
        assert_eq!(
            check_wire_response(&insert, &ok(ActionOutput::empty())),
            Ok(())
        );
        assert_eq!(check_wire_response(&insert, &dup), Ok(()));
        assert!(check_wire_response(&insert, &Response::err(ErrorCode::Abort, "x")).is_err());

        let delete = Op::Delete {
            table: CALL_FORWARDING,
            key: lo,
            secondary_key: None,
        };
        assert_eq!(check_wire_response(&delete, &ok(values(vec![0]))), Ok(()));
        assert!(check_wire_response(&delete, &dup).is_err());
        assert!(check_wire_response(&delete, &ok(values(vec![]))).is_err());
        // A response to a different op kind is caught.
        assert!(check_wire_response(&get_sub, &ok(values(vec![1]))).is_err());
    }

    #[test]
    fn server_counters() {
        let mut d = ServerStatsSnapshot {
            frames_decoded: 10,
            responses_sent: 10,
            ..Default::default()
        };
        assert_eq!(check_server_counters(10, &d), Ok(()));
        assert!(check_server_counters(11, &d).is_err());
        d.responses_sent = 9;
        assert!(check_server_counters(10, &d).is_err());
        d.responses_sent = 10;
        d.decode_errors = 1;
        assert!(check_server_counters(10, &d).is_err());
    }

    fn tpcb_base(branches: u64) -> TpcbState {
        TpcbState {
            branch: vec![1_000; branches as usize],
            teller: vec![1_000; (branches * TELLERS_PER_BRANCH) as usize],
            account: vec![1_000; (branches * ACCOUNTS_PER_BRANCH) as usize],
            history: vec![(0, 0); branches as usize],
        }
    }

    /// Apply one committed account update to `s` and `tally`.
    fn apply(s: &mut TpcbState, tally: &mut TpcbTally, b: u64, t: u64, a: u64, delta: i64) {
        let add = |v: &mut u64| *v = v.wrapping_add(delta as u64);
        add(&mut s.branch[b as usize]);
        add(&mut s.teller[teller_key(b, t) as usize]);
        add(&mut s.account[account_key(b, a) as usize]);
        let h = &mut s.history[b as usize];
        *h = (h.0 + 1, h.1.wrapping_add(delta as u64));
        tally.commit(b, delta);
    }

    #[test]
    fn tpcb_sums() {
        let base = tpcb_base(2);
        let mut now = base.clone();
        let mut tally = TpcbTally::new(2);
        apply(&mut now, &mut tally, 0, 3, 17, -2_000);
        apply(&mut now, &mut tally, 1, 9, 9_999, 4_999);
        apply(&mut now, &mut tally, 1, 0, 0, -4_999);
        assert_eq!(check_tpcb(&base, &now, &tally), Ok(()));

        type Corrupt = fn(&mut TpcbState);
        let broken: [(&str, Corrupt); 5] = [
            ("branch", |s| s.branch[1] += 1),
            ("teller", |s| s.teller[teller_key(0, 3) as usize] += 1),
            ("account", |s| s.account[account_key(1, 5) as usize] -= 1),
            ("history sum", |s| s.history[0].1 += 1),
            ("history rows", |s| s.history[1].0 += 1),
        ];
        for (what, corrupt) in broken {
            let mut bad = now.clone();
            corrupt(&mut bad);
            assert!(check_tpcb(&base, &bad, &tally).is_err(), "{what}");
        }
        // A committed transaction the database does not show.
        let mut more = tally.clone();
        more.commit(0, 1);
        assert!(check_tpcb(&base, &now, &more).is_err());
    }

    #[test]
    fn recovered_state() {
        let s = tpcb_base(1);
        assert_eq!(check_recovered(&s, &s, 0), Ok(()));
        assert!(check_recovered(&s, &s, 1).is_err());
        let mut lost = s.clone();
        lost.account[3] -= 7;
        assert!(check_recovered(&s, &lost, 0).is_err());
    }
}
