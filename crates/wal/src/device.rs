//! The file-backed log device: segmented append-only files with real
//! `write` + `fsync`.
//!
//! The device is fed by the log manager's group-commit flusher: each flush
//! batch is serialized ([`crate::segment`]) and appended to the current
//! segment; segments roll at record boundaries once they exceed the
//! configured target size, so the LSN ↔ file-offset correspondence described
//! in the segment module always holds.
//!
//! Opening an existing directory re-finds the tail: segments are scanned in
//! base-LSN order, records are CRC-validated, the last segment is truncated
//! at the first torn/corrupt record and any later (unreachable) segments are
//! removed — after which appending resumes exactly where the valid log
//! ended.  [`crate::recovery::scan_log`] performs the same walk read-only.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use plp_instrument::StatsRegistry;

use crate::record::{LogRecord, Lsn};
use crate::segment::{
    decode_record, decode_segment_header, encode_record, encode_segment_header, segment_file_name,
    DecodeError, DEFAULT_SEGMENT_BYTES, SEGMENT_HEADER_BYTES,
};

/// One on-disk segment discovered by [`list_segments`].
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    pub path: PathBuf,
    pub base_lsn: Lsn,
    /// File length in bytes (header included).
    pub file_len: u64,
}

/// List the segment files of a log directory in base-LSN order.  Files whose
/// header does not parse are ignored (they are not part of the log).
pub fn list_segments(dir: &Path) -> io::Result<Vec<SegmentInfo>> {
    let mut segments = Vec::new();
    if !dir.exists() {
        return Ok(segments);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("seg") {
            continue;
        }
        let mut header = [0u8; SEGMENT_HEADER_BYTES];
        let mut f = File::open(&path)?;
        let n = f.read(&mut header)?;
        let Some(base_lsn) = decode_segment_header(&header[..n]) else {
            continue;
        };
        segments.push(SegmentInfo {
            file_len: f.metadata()?.len(),
            path,
            base_lsn,
        });
    }
    segments.sort_by_key(|s| s.base_lsn);
    Ok(segments)
}

/// Walk every record of a segment file, calling `visit` for each valid
/// record.  Returns `(valid_payload_bytes, next_lsn, clean)` where
/// `valid_payload_bytes` is the record-byte count after the header up to the
/// last valid record, and `clean` is false when a torn/corrupt record (or
/// trailing garbage) was found.
pub fn walk_segment(
    info: &SegmentInfo,
    mut visit: impl FnMut(LogRecord),
) -> io::Result<(u64, Lsn, bool)> {
    let mut buf = Vec::with_capacity(info.file_len as usize);
    File::open(&info.path)?.read_to_end(&mut buf)?;
    if buf.len() < SEGMENT_HEADER_BYTES {
        return Ok((0, info.base_lsn, false));
    }
    let mut pos = SEGMENT_HEADER_BYTES;
    let mut lsn = info.base_lsn;
    while pos < buf.len() {
        match decode_record(&buf[pos..], lsn) {
            Ok((record, consumed)) => {
                lsn = lsn.advance(consumed as u64);
                pos += consumed;
                visit(record);
            }
            Err(DecodeError::Truncated | DecodeError::Corrupt) => {
                return Ok(((pos - SEGMENT_HEADER_BYTES) as u64, lsn, false));
            }
        }
    }
    Ok(((pos - SEGMENT_HEADER_BYTES) as u64, lsn, true))
}

struct OpenSegment {
    file: File,
    base_lsn: Lsn,
    /// Record bytes written past the segment header.
    written: u64,
}

struct DeviceState {
    current: Option<OpenSegment>,
    /// LSN the next appended record must carry.
    next_lsn: Lsn,
    scratch: Vec<u8>,
    /// Test hook: fail the next [`LogDevice::append_batch`].
    fail_next_write: bool,
}

/// A segmented, append-only, fsync-capable log device.
pub struct LogDevice {
    dir: PathBuf,
    segment_target: u64,
    state: Mutex<DeviceState>,
    stats: Arc<StatsRegistry>,
}

impl LogDevice {
    /// Open (or create) the log directory for appending.  Existing segments
    /// are scanned to find the valid tail; a torn tail is truncated away and
    /// unreachable later segments are deleted.  Returns the device and the
    /// LSN at which appending resumes (`Lsn::FIRST` for a fresh directory).
    pub fn open(
        dir: impl Into<PathBuf>,
        segment_target: u64,
        stats: Arc<StatsRegistry>,
    ) -> io::Result<(Self, Lsn)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let segments = list_segments(&dir)?;
        // Remove orphan .seg files whose header never parsed (e.g. a crash
        // tore the file inside its first 32 bytes).  Left in place, a later
        // roll at that base LSN would append a fresh header *after* the
        // garbage, producing a segment every future recovery drops whole —
        // silently losing fsynced commits.
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("seg")
                && !segments.iter().any(|s| s.path == path)
            {
                std::fs::remove_file(&path)?;
            }
        }
        let mut tail = Lsn::FIRST;
        let mut expected_base = None;
        let mut valid_until = segments.len();
        for (i, seg) in segments.iter().enumerate() {
            if let Some(expected) = expected_base {
                if seg.base_lsn != expected {
                    // A hole in the LSN chain: everything from here on is
                    // unreachable.
                    valid_until = i;
                    break;
                }
            }
            let (valid_bytes, next_lsn, clean) = walk_segment(seg, |_| {})?;
            let valid_len = SEGMENT_HEADER_BYTES as u64 + valid_bytes;
            if seg.file_len > valid_len {
                // Torn tail (or trailing garbage): drop it so appends resume
                // at a clean record boundary.
                OpenOptions::new()
                    .write(true)
                    .open(&seg.path)?
                    .set_len(valid_len)?;
            }
            tail = next_lsn;
            if !clean {
                valid_until = i + 1;
                break;
            }
            expected_base = Some(next_lsn);
        }
        for seg in &segments[valid_until..] {
            std::fs::remove_file(&seg.path)?;
        }
        let current = match segments[..valid_until].last() {
            Some(seg) => {
                let file = OpenOptions::new().append(true).open(&seg.path)?;
                Some(OpenSegment {
                    file,
                    base_lsn: seg.base_lsn,
                    written: tail.0 - seg.base_lsn.0,
                })
            }
            None => None,
        };
        Ok((
            Self {
                dir,
                segment_target: segment_target.max(SEGMENT_HEADER_BYTES as u64 + 1),
                state: Mutex::new(DeviceState {
                    current,
                    next_lsn: tail,
                    scratch: Vec::new(),
                    fail_next_write: false,
                }),
                stats,
            },
            tail,
        ))
    }

    /// Open with the default segment size.
    pub fn open_default(
        dir: impl Into<PathBuf>,
        stats: Arc<StatsRegistry>,
    ) -> io::Result<(Self, Lsn)> {
        Self::open(dir, DEFAULT_SEGMENT_BYTES, stats)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append a batch of records (already LSN-stamped, contiguous) to the
    /// device.  Rolls to a new segment at record boundaries once the current
    /// segment exceeds the target size.  Does not fsync — callers decide
    /// when durability is required via [`Self::sync`].
    pub fn append_batch(&self, records: &[LogRecord]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut state = self.state.lock();
        if std::mem::take(&mut state.fail_next_write) {
            return Err(io::Error::other("injected log device write failure"));
        }
        let mut bytes = 0u64;
        for record in records {
            assert_eq!(
                record.lsn, state.next_lsn,
                "log device fed out-of-order records"
            );
            if state
                .current
                .as_ref()
                .map(|c| c.written >= self.segment_target)
                .unwrap_or(true)
            {
                self.roll(&mut state)?;
            }
            let mut scratch = std::mem::take(&mut state.scratch);
            scratch.clear();
            encode_record(record, &mut scratch);
            let current = state.current.as_mut().expect("rolled above");
            current.file.write_all(&scratch)?;
            current.written += scratch.len() as u64;
            bytes += scratch.len() as u64;
            state.next_lsn = state.next_lsn.advance(record.size_bytes());
            state.scratch = scratch;
        }
        self.stats.wal().flushed(records.len() as u64, bytes);
        Ok(())
    }

    /// Test hook: make the next non-empty [`Self::append_batch`] fail with
    /// an I/O error before writing anything.  One-shot.
    #[doc(hidden)]
    pub fn inject_write_failure(&self) {
        self.state.lock().fail_next_write = true;
    }

    /// Close the current segment (fsyncing it) and start a new one whose
    /// base LSN is the next record's LSN.
    fn roll(&self, state: &mut DeviceState) -> io::Result<()> {
        if let Some(old) = state.current.take() {
            let fsync_start = Instant::now();
            old.file.sync_data()?;
            self.stats.wal().fsync();
            self.stats
                .latency()
                .wal_fsync
                .record_duration(fsync_start.elapsed());
        }
        let base = state.next_lsn;
        let path = self.dir.join(segment_file_name(base));
        // truncate(): if a crash left a same-named partial file behind, the
        // new segment must not be appended after its remains.
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&encode_segment_header(base))?;
        state.current = Some(OpenSegment {
            file,
            base_lsn: base,
            written: 0,
        });
        Ok(())
    }

    /// `fsync` the current segment.  Records appended before this call are
    /// durable once it returns.
    pub fn sync(&self) -> io::Result<()> {
        let state = self.state.lock();
        if let Some(current) = &state.current {
            let fsync_start = Instant::now();
            current.file.sync_data()?;
            self.stats.wal().fsync();
            self.stats
                .latency()
                .wal_fsync
                .record_duration(fsync_start.elapsed());
        }
        Ok(())
    }

    /// Next LSN the device expects (test/diagnostic helper).
    pub fn next_lsn(&self) -> Lsn {
        self.state.lock().next_lsn
    }

    /// Base LSN of the segment currently being appended to.
    pub fn current_segment_base(&self) -> Option<Lsn> {
        self.state.lock().current.as_ref().map(|c| c.base_lsn)
    }
}

impl std::fmt::Debug for LogDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("LogDevice")
            .field("dir", &self.dir)
            .field("segment_target", &self.segment_target)
            .field("next_lsn", &state.next_lsn)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecordKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "plp-wal-device-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn stamped(lsn: &mut Lsn, txn: u64, payload: Vec<u8>) -> LogRecord {
        let mut r = LogRecord::with_payload(txn, LogRecordKind::Insert, 0, txn, None, payload);
        r.lsn = *lsn;
        *lsn = lsn.advance(r.size_bytes());
        r
    }

    #[test]
    fn append_reopen_resumes_at_tail() {
        let dir = temp_dir("resume");
        let stats = StatsRegistry::new_shared();
        let (dev, tail) = LogDevice::open(&dir, 1 << 20, stats.clone()).unwrap();
        assert_eq!(tail, Lsn::FIRST);
        let mut lsn = tail;
        let batch: Vec<LogRecord> = (0..10).map(|i| stamped(&mut lsn, i, vec![7; 20])).collect();
        dev.append_batch(&batch).unwrap();
        dev.sync().unwrap();
        drop(dev);
        let (dev2, tail2) = LogDevice::open(&dir, 1 << 20, stats).unwrap();
        assert_eq!(tail2, lsn);
        // Appending continues seamlessly.
        let batch2 = vec![stamped(&mut lsn, 99, vec![1; 8])];
        dev2.append_batch(&batch2).unwrap();
        dev2.sync().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_stay_contiguous() {
        let dir = temp_dir("roll");
        let stats = StatsRegistry::new_shared();
        // Tiny target so every couple of records rolls a segment.
        let (dev, mut lsn) = LogDevice::open(&dir, 128, stats.clone()).unwrap();
        let batch: Vec<LogRecord> = (0..20).map(|i| stamped(&mut lsn, i, vec![3; 30])).collect();
        dev.append_batch(&batch).unwrap();
        dev.sync().unwrap();
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 3, "expected rolling, got {segments:?}");
        // Walking all segments yields all records in order.
        let mut seen = Vec::new();
        let mut expected_base = segments[0].base_lsn;
        for seg in &segments {
            assert_eq!(seg.base_lsn, expected_base);
            let (_, next, clean) = walk_segment(seg, |r| seen.push(r.txn_id)).unwrap();
            assert!(clean);
            expected_base = next;
        }
        assert_eq!(seen, (0..20).collect::<Vec<u64>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_removes_orphan_segment_with_torn_header() {
        let dir = temp_dir("orphan");
        let stats = StatsRegistry::new_shared();
        // Tiny target so appends roll into new segments quickly.
        let (dev, mut lsn) = LogDevice::open(&dir, 128, stats.clone()).unwrap();
        let batch: Vec<LogRecord> = (0..4).map(|i| stamped(&mut lsn, i, vec![1; 30])).collect();
        dev.append_batch(&batch).unwrap();
        dev.sync().unwrap();
        drop(dev);
        // A crash tore the *next* segment inside its header: 10 garbage
        // bytes under a valid-looking name.  Without cleanup, a later roll
        // at that base would append a fresh header after the garbage and
        // every future recovery would drop the whole segment.
        let orphan = dir.join(segment_file_name(lsn));
        std::fs::write(&orphan, [0xEEu8; 10]).unwrap();
        let (dev2, tail) = LogDevice::open(&dir, 128, stats.clone()).unwrap();
        assert!(!orphan.exists(), "orphan segment must be deleted on open");
        assert_eq!(tail, lsn);
        // Keep appending until a roll lands on the orphan's base LSN; all
        // records must still be recoverable afterwards.
        let batch2: Vec<LogRecord> = (4..12).map(|i| stamped(&mut lsn, i, vec![2; 30])).collect();
        dev2.append_batch(&batch2).unwrap();
        dev2.sync().unwrap();
        drop(dev2);
        let mut seen = Vec::new();
        for seg in list_segments(&dir).unwrap() {
            let (_, _, clean) = walk_segment(&seg, |r| seen.push(r.txn_id)).unwrap();
            assert!(clean);
        }
        assert_eq!(seen, (0..12).collect::<Vec<u64>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_truncates_torn_tail() {
        let dir = temp_dir("torn");
        let stats = StatsRegistry::new_shared();
        let (dev, mut lsn) = LogDevice::open(&dir, 1 << 20, stats.clone()).unwrap();
        let batch: Vec<LogRecord> = (0..5).map(|i| stamped(&mut lsn, i, vec![9; 40])).collect();
        dev.append_batch(&batch).unwrap();
        dev.sync().unwrap();
        drop(dev);
        // Tear the last record's payload.
        let seg = &list_segments(&dir).unwrap()[0];
        let torn_len = seg.file_len - 13;
        OpenOptions::new()
            .write(true)
            .open(&seg.path)
            .unwrap()
            .set_len(torn_len)
            .unwrap();
        let (_dev2, tail) = LogDevice::open(&dir, 1 << 20, stats).unwrap();
        // Tail backed up to the last intact record.
        assert_eq!(tail, batch[4].lsn);
        // And the file was truncated to the valid prefix.
        let seg = &list_segments(&dir).unwrap()[0];
        assert_eq!(
            seg.file_len,
            SEGMENT_HEADER_BYTES as u64 + (batch[4].lsn.0 - batch[0].lsn.0)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
