//! Property tests for the durable store: whatever bytes the filesystem
//! hands back — truncated tails, bit flips, missing files — the event-log
//! scanner and the slot store must never panic, never fabricate data, and
//! degrade exactly along the contract: intact prefix recovered, corrupt
//! slot rejected, missing slots reported as missing (the fail-closed
//! C-03/C-04 behaviors, pinned at the store layer).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use acr_store::{scan_bytes, EventLog, SlotData, SlotEntry, SlotError, SlotStore};
use proptest::prelude::*;
use proptest::prop::collection::vec as pvec;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "acr_store_props_{}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Append `records` through the real `EventLog` and return the file bytes.
fn log_bytes(records: &[Vec<u8>]) -> Vec<u8> {
    log_bytes_unsynced(records, &[])
}

/// The same, with record `i` going through `append_unsynced` where
/// `unsynced[i]` says so (records past the mask's end are fsynced).
fn log_bytes_unsynced(records: &[Vec<u8>], unsynced: &[bool]) -> Vec<u8> {
    let dir = tmp();
    let path = dir.join("log");
    let mut log = EventLog::create(&path).unwrap();
    for (i, r) in records.iter().enumerate() {
        if unsynced.get(i).copied().unwrap_or(false) {
            log.append_unsynced(r).unwrap();
        } else {
            log.append(r).unwrap();
        }
    }
    drop(log);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// `found` must be a subsequence of `appended`: the scanner may drop
/// damaged records but must never reorder or invent them.
fn is_subsequence(found: &[Vec<u8>], appended: &[Vec<u8>]) -> bool {
    let mut it = appended.iter();
    found.iter().all(|f| it.any(|a| a == f))
}

fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    pvec(pvec(any::<u8>(), 0..64), 1..8)
}

fn slot_data() -> impl Strategy<Value = SlotData> {
    (
        any::<u64>(),
        pvec(
            (0u8..2, 0u64..8, any::<u64>(), pvec(any::<u8>(), 0..64)),
            1..6,
        ),
    )
        .prop_map(|(epoch, entries)| SlotData {
            epoch,
            entries: entries
                .into_iter()
                .map(|(replica, rank, iteration, payload)| SlotEntry {
                    replica,
                    rank,
                    iteration,
                    payload,
                })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Append → scan is the identity: every record back, in order,
    /// nothing skipped, magic intact.
    #[test]
    fn log_round_trips_exactly(records in payloads()) {
        let bytes = log_bytes(&records);
        let scan = scan_bytes(&bytes);
        prop_assert_eq!(&scan.records, &records);
        prop_assert_eq!(scan.skipped_bytes, 0);
        prop_assert!(!scan.missing_magic);
    }

    /// Torn write: truncating the file at *every* byte offset yields a
    /// clean prefix of the appended records — never a panic, never a
    /// half-record, never a record out of order. A record written without
    /// its own fsync (the driver's `RoundOpened`) is framed like any other,
    /// so a journal cut at any byte of it, or right after it, scans the
    /// same way: whichever records the mask leaves unsynced, the file is
    /// the same file.
    #[test]
    fn truncation_at_any_offset_yields_clean_prefix(
        records in payloads(),
        unsynced in pvec(any::<bool>(), 0..8),
    ) {
        let bytes = log_bytes_unsynced(&records, &unsynced);
        prop_assert_eq!(&bytes, &log_bytes(&records), "an unsynced append changed the file");
        for cut in 0..=bytes.len() {
            let scan = scan_bytes(&bytes[..cut]);
            prop_assert!(
                scan.records.len() <= records.len(),
                "cut {cut}: more records out than in"
            );
            prop_assert_eq!(
                &scan.records[..],
                &records[..scan.records.len()],
                "cut {} produced a non-prefix",
                cut
            );
        }
    }

    /// Arbitrary bit flips anywhere in the file: the scanner self-heals —
    /// surviving records are a subsequence of what was appended (damage
    /// drops records, it never rewrites or reorders them) and every
    /// dropped byte is accounted for in `skipped_bytes`.
    #[test]
    fn bit_flips_never_fabricate_or_reorder(
        records in payloads(),
        flips in pvec((any::<usize>(), 1u8..255), 1..5),
    ) {
        let mut bytes = log_bytes(&records);
        for (idx, mask) in &flips {
            let i = idx % bytes.len();
            bytes[i] ^= mask;
        }
        let scan = scan_bytes(&bytes);
        prop_assert!(
            is_subsequence(&scan.records, &records),
            "scanner fabricated or reordered records"
        );
        if scan.records.len() < records.len() {
            prop_assert!(
                scan.skipped_bytes > 0 || scan.missing_magic,
                "records vanished without any damage reported"
            );
        }
    }

    /// Multi-job service layout: interleaved appends from two jobs
    /// sharing one store root land in disjoint journals. Each job's
    /// journal scans back to exactly its own records, in order, and is
    /// **byte-identical** to the journal the same appends produce with no
    /// sibling job at all — the store layer cannot cross-contaminate.
    #[test]
    fn interleaved_job_appends_never_cross_contaminate(
        a_records in payloads(),
        b_records in payloads(),
        schedule in pvec(any::<bool>(), 1..24),
    ) {
        let root = tmp();
        let dir_a = acr_store::job_store_dir(&root, 1, "job-a");
        let dir_b = acr_store::job_store_dir(&root, 2, "job-b");
        std::fs::create_dir_all(&dir_a).unwrap();
        std::fs::create_dir_all(&dir_b).unwrap();
        let mut log_a = EventLog::create(dir_a.join("events.log")).unwrap();
        let mut log_b = EventLog::create(dir_b.join("events.log")).unwrap();

        // Drive the appends through the generated interleaving; whatever
        // the schedule leaves over is flushed afterwards so every record
        // always lands.
        let (mut ia, mut ib) = (0usize, 0usize);
        for pick_a in &schedule {
            if *pick_a && ia < a_records.len() {
                log_a.append(&a_records[ia]).unwrap();
                ia += 1;
            } else if ib < b_records.len() {
                log_b.append(&b_records[ib]).unwrap();
                ib += 1;
            }
        }
        for r in &a_records[ia..] {
            log_a.append(r).unwrap();
        }
        for r in &b_records[ib..] {
            log_b.append(r).unwrap();
        }
        drop(log_a);
        drop(log_b);

        let bytes_a = std::fs::read(dir_a.join("events.log")).unwrap();
        let bytes_b = std::fs::read(dir_b.join("events.log")).unwrap();
        prop_assert_eq!(&scan_bytes(&bytes_a).records, &a_records);
        prop_assert_eq!(&scan_bytes(&bytes_b).records, &b_records);
        // Solo-run journals for the same records, byte for byte.
        prop_assert_eq!(bytes_a, log_bytes(&a_records));
        prop_assert_eq!(bytes_b, log_bytes(&b_records));

        let listed = acr_store::list_job_stores(&root).unwrap();
        prop_assert_eq!(listed.len(), 2);
        prop_assert_eq!((listed[0].id, listed[0].name.as_str()), (1, "job-a"));
        prop_assert_eq!((listed[1].id, listed[1].name.as_str()), (2, "job-b"));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Slot write → read is the identity.
    #[test]
    fn slot_round_trips_exactly(data in slot_data(), slot in 0u8..2) {
        let dir = tmp();
        let store = SlotStore::new(&dir);
        store.write(slot, &data).unwrap();
        prop_assert_eq!(store.read(slot).unwrap(), data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any single byte flip in a slot file is caught: the read reports
    /// corruption rather than returning altered checkpoint state.
    #[test]
    fn slot_bit_flip_is_rejected_not_returned(
        data in slot_data(),
        idx in any::<usize>(),
        mask in 1u8..255,
    ) {
        let dir = tmp();
        let store = SlotStore::new(&dir);
        store.write(0, &data).unwrap();
        let path = store.slot_path(0);
        let mut bytes = std::fs::read(&path).unwrap();
        let i = idx % bytes.len();
        bytes[i] ^= mask;
        std::fs::write(&path, bytes).unwrap();
        match store.read(0) {
            Err(SlotError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "wrong error class: {other}"),
            Ok(read) => prop_assert!(
                false,
                "corrupt slot returned data (epoch {})",
                read.epoch
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// C-03 at the store layer: with both slots written, corrupting the
    /// primary leaves the rollback slot's epoch fully readable.
    #[test]
    fn corrupt_primary_leaves_rollback_readable(
        older in slot_data(),
        newer in slot_data(),
        idx in any::<usize>(),
        mask in 1u8..255,
    ) {
        let dir = tmp();
        let store = SlotStore::new(&dir);
        store.write(0, &older).unwrap();
        store.write(1, &newer).unwrap();
        let path = store.slot_path(1);
        let mut bytes = std::fs::read(&path).unwrap();
        let i = idx % bytes.len();
        bytes[i] ^= mask;
        std::fs::write(&path, bytes).unwrap();
        prop_assert!(store.read(1).is_err(), "damaged primary must not read");
        prop_assert_eq!(store.read(0).unwrap(), older);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// C-04 at the store layer: an empty store has no slots to offer — both
/// reads fail closed with `Missing`, the signal the resume planner turns
/// into "refusing to resume from guessed state".
#[test]
fn missing_both_slots_fails_closed() {
    let dir = tmp();
    let store = SlotStore::new(&dir);
    assert!(matches!(store.read(0), Err(SlotError::Missing)));
    assert!(matches!(store.read(1), Err(SlotError::Missing)));
    let _ = std::fs::remove_dir_all(&dir);
}
