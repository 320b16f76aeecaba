//! The append-only event log: file magic, length-prefixed records with a
//! per-record Fletcher-64 trailer, and a byte-scanning self-healing reader.
//!
//! On-disk layout:
//!
//! ```text
//! file   := "ACRELOG1" record*
//! record := "ACRE" len:u32le payload:[u8; len] fletcher64(payload):u64le
//! ```
//!
//! The writer appends and fsyncs ([`EventLog::append`]; its one sibling,
//! [`EventLog::append_unsynced`], leaves the fsync to the next `append`);
//! it never seeks backwards, so a crash at any byte offset leaves a fully
//! intact prefix followed by at most one torn record. The reader makes
//! the weaker assumption that *anything* may follow the intact prefix —
//! torn tails, zero-fill, bit flips from a bad disk — and scans
//! byte-by-byte for the next record magic whenever validation fails,
//! counting what it skipped.

use acr_pup::fletcher64;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// 8-byte file magic at offset 0.
pub(crate) const FILE_MAGIC: &[u8; 8] = b"ACRELOG1";
/// 4-byte per-record magic.
pub(crate) const RECORD_MAGIC: &[u8; 4] = b"ACRE";
/// Sanity cap on a record's payload length. Driver journal records are a
/// few hundred bytes; anything claiming more is garbage bytes that happen
/// to spell the record magic.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// Append-only writer over one log file.
///
/// Appends are synchronous: every [`EventLog::append`] writes the framed
/// record and fsyncs before returning, so the on-disk state after a hard
/// kill holds every record whose `append` returned, in order. Records
/// from [`EventLog::append_unsynced`] after the last such `append` may be
/// missing, from the first lost byte onwards.
#[derive(Debug)]
pub struct EventLog {
    file: File,
    path: PathBuf,
    appends: u64,
    bytes: u64,
    syncs: u64,
}

impl EventLog {
    /// Create a fresh log at `path`, truncating anything already there,
    /// and durably write the file magic.
    pub fn create(path: impl AsRef<Path>) -> io::Result<EventLog> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(FILE_MAGIC)?;
        file.sync_data()?;
        Ok(EventLog {
            file,
            path,
            appends: 0,
            bytes: FILE_MAGIC.len() as u64,
            syncs: 1,
        })
    }

    /// Append one record (framing + payload + trailer), fsync, and return
    /// the number of bytes written. Whatever [`EventLog::append_unsynced`]
    /// wrote before it is durable when this returns.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let written = self.append_unsynced(payload)?;
        self.file.sync_data()?;
        self.syncs += 1;
        Ok(written)
    }

    /// Append one record without an fsync of its own and return the number
    /// of bytes written. The record sits in file order like any other and
    /// becomes durable with the next [`EventLog::append`], whose fsync
    /// covers every byte written before it; a crash before that may lose
    /// it, whole or in part. For a record that only has to *precede* what
    /// follows it, never to outlive a crash by itself.
    pub fn append_unsynced(&mut self, payload: &[u8]) -> io::Result<u64> {
        assert!(
            payload.len() as u64 <= MAX_RECORD_LEN as u64,
            "record payload exceeds MAX_RECORD_LEN"
        );
        let mut frame = Vec::with_capacity(4 + 4 + payload.len() + 8);
        frame.extend_from_slice(RECORD_MAGIC);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&fletcher64(payload).to_le_bytes());
        self.file.write_all(&frame)?;
        self.appends += 1;
        self.bytes += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this handle.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Bytes written through this handle (magic included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// fsyncs issued through this handle.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// What the self-healing reader recovered from a log file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogScan {
    /// Every record whose framing and Fletcher-64 trailer validated, in
    /// file order.
    pub records: Vec<Vec<u8>>,
    /// Bytes that belonged to no valid record (torn tails, corruption,
    /// garbage between records) and were skipped while resynchronizing.
    pub skipped_bytes: u64,
    /// The 8-byte file magic was missing or damaged. Records found after
    /// a resync are still returned — the header is advisory, not
    /// load-bearing.
    pub missing_magic: bool,
}

/// Scan a log file from disk. Missing file is an error (the caller decides
/// whether that is "nothing to resume" or a guardrail violation); any file
/// *content* is handled without panicking.
pub fn scan_log(path: impl AsRef<Path>) -> io::Result<LogScan> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    Ok(scan_bytes(&buf))
}

/// The pure scanning kernel over an in-memory image of the log file.
///
/// Validation per candidate offset: record magic, a sane length that fits
/// inside the buffer, and a matching Fletcher-64 trailer. On any failure
/// the scan advances one byte and tries again, so a single valid record
/// embedded after arbitrary garbage is still found, and a truncated tail
/// record is skipped without losing the intact prefix.
pub fn scan_bytes(buf: &[u8]) -> LogScan {
    let mut scan = LogScan::default();
    let mut i = if buf.len() >= FILE_MAGIC.len() && &buf[..FILE_MAGIC.len()] == FILE_MAGIC {
        FILE_MAGIC.len()
    } else {
        scan.missing_magic = true;
        0
    };
    while i < buf.len() {
        match try_record(&buf[i..]) {
            Some((payload, consumed)) => {
                scan.records.push(payload);
                i += consumed;
            }
            None => {
                scan.skipped_bytes += 1;
                i += 1;
            }
        }
    }
    scan
}

/// Outcome of trying to parse one record at the start of a buffer. The
/// distinction between `Bad` and `NeedMore` only matters to the live
/// tailer: a whole-file scan treats an incomplete tail as garbage (the
/// file *is* the final state), while a tailer must wait for the writer to
/// finish the record.
enum RecordParse {
    /// A fully validated record: `(payload, bytes consumed)`.
    Ok(Vec<u8>, usize),
    /// The prefix is consistent with a record still being written: the
    /// bytes present match the record magic and a sane length, but the
    /// frame is not complete yet.
    NeedMore,
    /// The byte at the start of the buffer cannot begin a record.
    Bad,
}

fn parse_record(buf: &[u8]) -> RecordParse {
    // Not enough bytes for magic + length yet: NeedMore only while every
    // byte present still agrees with the record magic.
    if buf.len() < 8 {
        return if buf[..buf.len().min(4)] == RECORD_MAGIC[..buf.len().min(4)] {
            RecordParse::NeedMore
        } else {
            RecordParse::Bad
        };
    }
    if &buf[..4] != RECORD_MAGIC {
        return RecordParse::Bad;
    }
    let len = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN {
        return RecordParse::Bad;
    }
    let end = 8 + len as usize + 8;
    if end > buf.len() {
        return RecordParse::NeedMore;
    }
    let payload = &buf[8..8 + len as usize];
    let trailer = u64::from_le_bytes(buf[8 + len as usize..end].try_into().expect("8 bytes"));
    if fletcher64(payload) != trailer {
        return RecordParse::Bad;
    }
    RecordParse::Ok(payload.to_vec(), end)
}

/// Try to parse one record at the start of `buf`; `None` if anything about
/// it fails validation *or* the buffer ends mid-record (whole-file scans
/// treat a torn tail as skippable garbage).
fn try_record(buf: &[u8]) -> Option<(Vec<u8>, usize)> {
    match parse_record(buf) {
        RecordParse::Ok(payload, consumed) => Some((payload, consumed)),
        RecordParse::NeedMore | RecordParse::Bad => None,
    }
}

/// Incremental read-side tail over a growing log file.
///
/// Where [`scan_log`] re-reads the whole file, a `LogTailer` remembers its
/// byte offset and only reads what the writer appended since the last
/// [`LogTailer::poll`] — the shared code path behind the driver's
/// `GET /events` endpoint and `acr-top`'s store-follow mode.
///
/// Semantics:
/// - `from_seq` records (0-based index into the valid-record sequence) are
///   parsed but not returned, so a poller that already folded `n` records
///   can attach with `from_seq = n` and receive only what is new;
/// - a clean-looking but incomplete tail (a record mid-write, or the torn
///   last record of a killed driver) is *held*, not skipped — the next
///   poll re-examines it once more bytes exist;
/// - garbage bytes are skipped one at a time exactly like [`scan_bytes`],
///   counted in [`LogTailer::skipped_bytes`], and resynchronized past.
#[derive(Debug)]
pub struct LogTailer {
    path: PathBuf,
    /// File offset up to which bytes have been pulled into `carry`.
    read_to: u64,
    /// Bytes read from the file but not yet consumed as records (at most
    /// one partial record plus unscanned garbage).
    carry: Vec<u8>,
    /// Whether the 8-byte file magic has been consumed (or judged absent).
    header_done: bool,
    /// Valid records still to suppress before returning any (from_seq).
    skip: u64,
    records_seen: u64,
    skipped_bytes: u64,
}

impl LogTailer {
    /// Tail `path` from the first record.
    pub fn new(path: impl AsRef<Path>) -> LogTailer {
        LogTailer::from_seq(path, 0)
    }

    /// Tail `path`, returning only records strictly *after* `last_seen`
    /// (0-based record index): the boundary record `last_seen` itself is
    /// suppressed, matching the driver endpoint's `/events?since=`
    /// exclusive semantics. A poller that has folded the record with
    /// index `n` resumes with `since(path, n)`.
    pub fn since(path: impl AsRef<Path>, last_seen: u64) -> LogTailer {
        LogTailer::from_seq(path, last_seen.saturating_add(1))
    }

    /// Tail `path`, suppressing the first `from_seq` valid records — a
    /// *count*, so the first record returned is the one with 0-based
    /// index `from_seq`. Equivalently, this is the **exclusive**
    /// `since = from_seq - 1` boundary of [`LogTailer::since`]; a poller
    /// that already folded `n` records attaches with `from_seq = n`.
    /// The file need not exist yet; polls return empty until it does.
    pub fn from_seq(path: impl AsRef<Path>, from_seq: u64) -> LogTailer {
        LogTailer {
            path: path.as_ref().to_path_buf(),
            read_to: 0,
            carry: Vec::new(),
            header_done: false,
            skip: from_seq,
            records_seen: 0,
            skipped_bytes: 0,
        }
    }

    /// Valid records parsed so far (returned *and* `from_seq`-suppressed).
    /// This is the `from_seq` a fresh tailer would need to continue where
    /// this one is.
    pub fn records_seen(&self) -> u64 {
        self.records_seen
    }

    /// Garbage bytes skipped while resynchronizing.
    pub fn skipped_bytes(&self) -> u64 {
        self.skipped_bytes
    }

    /// Read any new bytes and return the new complete records, oldest
    /// first. An empty `Vec` means nothing new (or the file is still
    /// missing / mid-write).
    pub fn poll(&mut self) -> io::Result<Vec<Vec<u8>>> {
        match File::open(&self.path) {
            Ok(mut file) => {
                use std::io::Seek;
                file.seek(io::SeekFrom::Start(self.read_to))?;
                let pulled = file.read_to_end(&mut self.carry)?;
                self.read_to += pulled as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        }
        if !self.header_done {
            if self.carry.len() < FILE_MAGIC.len() {
                // Cannot judge the header yet; wait for more bytes rather
                // than misparsing a half-written magic as garbage.
                return Ok(Vec::new());
            }
            if &self.carry[..FILE_MAGIC.len()] == FILE_MAGIC {
                self.carry.drain(..FILE_MAGIC.len());
            }
            self.header_done = true;
        }
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < self.carry.len() {
            match parse_record(&self.carry[i..]) {
                RecordParse::Ok(payload, consumed) => {
                    i += consumed;
                    self.records_seen += 1;
                    if self.skip > 0 {
                        self.skip -= 1;
                    } else {
                        out.push(payload);
                    }
                }
                RecordParse::NeedMore => break,
                RecordParse::Bad => {
                    self.skipped_bytes += 1;
                    i += 1;
                }
            }
        }
        self.carry.drain(..i);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("acr-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip() {
        let path = tmp("roundtrip.log");
        let mut log = EventLog::create(&path).unwrap();
        log.append(b"alpha").unwrap();
        log.append(b"").unwrap();
        log.append(&[0u8; 300]).unwrap();
        assert_eq!(log.appends(), 3);
        assert_eq!(log.syncs(), 4, "one per append plus the header");
        let bytes = log.bytes_written();
        assert_eq!(log.append_unsynced(b"order-only").unwrap(), 4 + 4 + 10 + 8);
        assert_eq!(log.appends(), 4);
        assert_eq!(log.bytes_written(), bytes + 26);
        assert_eq!(log.syncs(), 4, "the unsynced sibling issues no fsync");
        let scan = scan_log(&path).unwrap();
        assert_eq!(
            scan.records,
            vec![
                b"alpha".to_vec(),
                Vec::new(),
                vec![0u8; 300],
                b"order-only".to_vec()
            ]
        );
        assert_eq!(scan.skipped_bytes, 0);
        assert!(!scan.missing_magic);
    }

    #[test]
    fn create_truncates() {
        let path = tmp("truncate.log");
        let mut log = EventLog::create(&path).unwrap();
        log.append(b"old").unwrap();
        let log2 = EventLog::create(&path).unwrap();
        assert_eq!(log2.appends(), 0);
        assert!(scan_log(&path).unwrap().records.is_empty());
    }

    #[test]
    fn torn_tail_keeps_prefix() {
        let path = tmp("torn.log");
        let mut log = EventLog::create(&path).unwrap();
        log.append(b"kept-1").unwrap();
        log.append(b"kept-2").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // A torn third record: header + half the payload, no trailer.
        bytes.extend_from_slice(b"ACRE");
        bytes.extend_from_slice(&40u32.to_le_bytes());
        bytes.extend_from_slice(&[7u8; 13]);
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records, vec![b"kept-1".to_vec(), b"kept-2".to_vec()]);
        assert_eq!(scan.skipped_bytes, 4 + 4 + 13);
    }

    #[test]
    fn resyncs_over_garbage_between_records() {
        let path = tmp("resync.log");
        let mut log = EventLog::create(&path).unwrap();
        log.append(b"before").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"not a record at all");
        // A fully valid record after the garbage must still be found.
        let payload = b"after";
        bytes.extend_from_slice(b"ACRE");
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&fletcher64(payload).to_le_bytes());
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records, vec![b"before".to_vec(), b"after".to_vec()]);
        assert_eq!(scan.skipped_bytes, 19);
        assert!(!scan.missing_magic);
    }

    #[test]
    fn damaged_header_still_yields_records() {
        let path = tmp("header.log");
        let mut log = EventLog::create(&path).unwrap();
        log.append(b"survivor").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        let scan = scan_bytes(&bytes);
        assert!(scan.missing_magic);
        assert_eq!(scan.records, vec![b"survivor".to_vec()]);
    }

    #[test]
    fn insane_length_is_garbage_not_a_panic() {
        let mut bytes = FILE_MAGIC.to_vec();
        bytes.extend_from_slice(b"ACRE");
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[1u8; 64]);
        let scan = scan_bytes(&bytes);
        assert!(scan.records.is_empty());
        assert_eq!(scan.skipped_bytes, 4 + 4 + 64);
    }

    #[test]
    fn tailer_sees_only_new_records_per_poll() {
        let path = tmp("tailer-incremental.log");
        let mut log = EventLog::create(&path).unwrap();
        log.append(b"one").unwrap();
        log.append(b"two").unwrap();
        let mut tail = LogTailer::new(&path);
        assert_eq!(tail.poll().unwrap(), vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(tail.poll().unwrap(), Vec::<Vec<u8>>::new());
        log.append(b"three").unwrap();
        assert_eq!(tail.poll().unwrap(), vec![b"three".to_vec()]);
        assert_eq!(tail.records_seen(), 3);
        assert_eq!(tail.skipped_bytes(), 0);
    }

    #[test]
    fn tailer_from_seq_suppresses_prefix() {
        let path = tmp("tailer-fromseq.log");
        let mut log = EventLog::create(&path).unwrap();
        for p in [b"a".as_ref(), b"b", b"c", b"d"] {
            log.append(p).unwrap();
        }
        let mut tail = LogTailer::from_seq(&path, 3);
        assert_eq!(tail.poll().unwrap(), vec![b"d".to_vec()]);
        log.append(b"e").unwrap();
        assert_eq!(tail.poll().unwrap(), vec![b"e".to_vec()]);
        assert_eq!(tail.records_seen(), 5);
    }

    /// Regression: `since` is exclusive at the exact boundary — the
    /// record whose index equals the argument is suppressed, not
    /// replayed (the historical divergence between the store tail and
    /// the driver's `/events?since=` endpoint).
    #[test]
    fn tailer_since_is_exclusive_at_boundary() {
        let path = tmp("tailer-since-boundary.log");
        let mut log = EventLog::create(&path).unwrap();
        for p in [b"r0".as_ref(), b"r1", b"r2", b"r3"] {
            log.append(p).unwrap();
        }
        // Saw record 2 → get strictly newer records only.
        let mut tail = LogTailer::since(&path, 2);
        assert_eq!(tail.poll().unwrap(), vec![b"r3".to_vec()]);
        // Boundary == last record → nothing to replay.
        let mut tail = LogTailer::since(&path, 3);
        assert_eq!(tail.poll().unwrap(), Vec::<Vec<u8>>::new());
        // since(n) ≡ from_seq(n + 1).
        let mut a = LogTailer::since(&path, 0);
        let mut b = LogTailer::from_seq(&path, 1);
        assert_eq!(a.poll().unwrap(), b.poll().unwrap());
    }

    #[test]
    fn tailer_holds_a_partial_record_until_completed() {
        let path = tmp("tailer-partial.log");
        let mut log = EventLog::create(&path).unwrap();
        log.append(b"whole").unwrap();
        // Hand-write a record in two halves, polling in between: the
        // tailer must hold the torn prefix rather than skipping it.
        let payload = b"split-record";
        let mut frame = RECORD_MAGIC.to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&fletcher64(payload).to_le_bytes());
        let mid = frame.len() / 2;
        let mut tail = LogTailer::new(&path);
        assert_eq!(tail.poll().unwrap(), vec![b"whole".to_vec()]);
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&frame[..mid]).unwrap();
        }
        assert_eq!(tail.poll().unwrap(), Vec::<Vec<u8>>::new());
        assert_eq!(
            tail.skipped_bytes(),
            0,
            "torn prefix must be held, not skipped"
        );
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&frame[mid..]).unwrap();
        }
        assert_eq!(tail.poll().unwrap(), vec![payload.to_vec()]);
    }

    #[test]
    fn tailer_resyncs_over_garbage_like_scan_bytes() {
        let path = tmp("tailer-garbage.log");
        let mut log = EventLog::create(&path).unwrap();
        log.append(b"before").unwrap();
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"not a record at all").unwrap();
        }
        log = EventLog {
            file: OpenOptions::new().append(true).open(&path).unwrap(),
            path: path.clone(),
            appends: 0,
            bytes: 0,
            syncs: 0,
        };
        log.append(b"after").unwrap();
        let mut tail = LogTailer::new(&path);
        assert_eq!(
            tail.poll().unwrap(),
            vec![b"before".to_vec(), b"after".to_vec()]
        );
        assert_eq!(tail.skipped_bytes(), 19);
    }

    #[test]
    fn tailer_on_missing_file_waits_quietly() {
        let path = tmp("tailer-missing.log");
        let _ = std::fs::remove_file(&path);
        let mut tail = LogTailer::new(&path);
        assert_eq!(tail.poll().unwrap(), Vec::<Vec<u8>>::new());
        let mut log = EventLog::create(&path).unwrap();
        log.append(b"late").unwrap();
        assert_eq!(tail.poll().unwrap(), vec![b"late".to_vec()]);
    }

    #[test]
    fn tailer_agrees_with_scan_log() {
        let path = tmp("tailer-vs-scan.log");
        let mut log = EventLog::create(&path).unwrap();
        for i in 0..50u32 {
            log.append(&i.to_le_bytes()).unwrap();
        }
        let mut tail = LogTailer::new(&path);
        let tailed = tail.poll().unwrap();
        assert_eq!(tailed, scan_log(&path).unwrap().records);
    }

    #[test]
    fn empty_and_magic_only_files() {
        assert_eq!(
            scan_bytes(&[]),
            LogScan {
                missing_magic: true,
                ..LogScan::default()
            }
        );
        assert_eq!(scan_bytes(FILE_MAGIC), LogScan::default());
    }
}
