//! The A/B checkpoint slot store: two alternating whole-file slots holding
//! "what we believe" — the per-node checkpoint payloads of the last
//! committed epoch(s).
//!
//! On-disk layout of one slot file:
//!
//! ```text
//! file  := "ACRSLOT1" epoch:u64le count:u64le entry* fletcher64(body):u64le
//! entry := replica:u8 rank:u64le iteration:u64le len:u64le payload:[u8; len]
//! ```
//!
//! where `body` is everything between the magic and the trailer. The store
//! always writes the slot the *previous* commit did not use, so a crash
//! mid-write can only damage the slot being written; the other slot still
//! holds the previous epoch intact. Which slot is authoritative is not
//! recorded here — the event log's epoch-commit records carry the slot id,
//! and the log is the source of truth ("events = what happened").

use acr_pup::{fletcher64, Fletcher64};
use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Read, Write};
use std::path::{Path, PathBuf};

const SLOT_MAGIC: &[u8; 8] = b"ACRSLOT1";
/// Sanity cap on one entry's payload (mirrors the log's record cap).
const MAX_ENTRY_LEN: u64 = 256 * 1024 * 1024;
/// Bytes of one entry's header: replica, rank, iteration, payload length.
const ENTRY_HEADER: usize = 1 + 8 + 8 + 8;

/// One node's checkpoint inside a slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotEntry {
    /// Replica the node belongs to.
    pub replica: u8,
    /// Rank within the replica.
    pub rank: u64,
    /// Iteration the checkpoint captures.
    pub iteration: u64,
    /// Opaque packed checkpoint payload.
    pub payload: Vec<u8>,
}

/// One node's checkpoint as [`SlotStore::write_entries`] takes it: a
/// [`SlotEntry`] whose payload stays where the caller holds it.
#[derive(Debug, Clone, Copy)]
pub struct SlotEntryRef<'a> {
    /// Replica the node belongs to.
    pub replica: u8,
    /// Rank within the replica.
    pub rank: u64,
    /// Iteration the checkpoint captures.
    pub iteration: u64,
    /// Opaque packed checkpoint payload.
    pub payload: &'a [u8],
}

/// A full slot image: one epoch's checkpoints for every active node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotData {
    /// The commit epoch this slot belongs to. Recovery cross-checks it
    /// against the epoch named by the log's commit record; a mismatch
    /// means the slot is stale or torn and must not be used.
    pub epoch: u64,
    /// Per-node checkpoints.
    pub entries: Vec<SlotEntry>,
}

/// Why a slot could not be read.
#[derive(Debug)]
pub enum SlotError {
    /// The slot file does not exist.
    Missing,
    /// The file exists but is torn, bit-flipped, or structurally invalid.
    Corrupt(String),
    /// An I/O error other than not-found.
    Io(io::Error),
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotError::Missing => write!(f, "slot file missing"),
            SlotError::Corrupt(why) => write!(f, "slot corrupt: {why}"),
            SlotError::Io(e) => write!(f, "slot i/o error: {e}"),
        }
    }
}

impl std::error::Error for SlotError {}

/// The two-slot store rooted at a directory.
#[derive(Debug, Clone)]
pub struct SlotStore {
    dir: PathBuf,
}

impl SlotStore {
    /// A store over `dir` (created on first write).
    pub fn new(dir: impl AsRef<Path>) -> SlotStore {
        SlotStore {
            dir: dir.as_ref().to_path_buf(),
        }
    }

    /// Path of slot `0` (`ckpt_a.slot`) or `1` (`ckpt_b.slot`).
    pub fn slot_path(&self, slot: u8) -> PathBuf {
        self.dir.join(if slot == 0 {
            "ckpt_a.slot"
        } else {
            "ckpt_b.slot"
        })
    }

    /// Serialize `data` into slot `slot`, fsync, and return bytes written:
    /// [`SlotStore::write_entries`] over the owned entries.
    pub fn write(&self, slot: u8, data: &SlotData) -> io::Result<u64> {
        let entries: Vec<SlotEntryRef<'_>> = data
            .entries
            .iter()
            .map(|e| SlotEntryRef {
                replica: e.replica,
                rank: e.rank,
                iteration: e.iteration,
                payload: &e.payload,
            })
            .collect();
        self.write_entries(slot, data.epoch, &entries)
    }

    /// Stream one epoch into slot `slot`, fsync, and return bytes written.
    /// Payloads are checksummed and handed to the file where they lie —
    /// the magic, the counts and every entry header go into one small
    /// buffer, and a vectored write interleaves its pieces with the
    /// payload slices — so a checkpoint is never copied on its way to
    /// disk. The write goes straight to the final path: tearing it
    /// mid-write is exactly the failure mode the *other* slot exists to
    /// absorb.
    pub fn write_entries(
        &self,
        slot: u8,
        epoch: u64,
        entries: &[SlotEntryRef<'_>],
    ) -> io::Result<u64> {
        std::fs::create_dir_all(&self.dir)?;
        const PRELUDE: usize = SLOT_MAGIC.len() + 8 + 8;
        let mut heads = Vec::with_capacity(PRELUDE + ENTRY_HEADER * entries.len());
        heads.extend_from_slice(SLOT_MAGIC);
        heads.extend_from_slice(&epoch.to_le_bytes());
        heads.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for e in entries {
            heads.push(e.replica);
            heads.extend_from_slice(&e.rank.to_le_bytes());
            heads.extend_from_slice(&e.iteration.to_le_bytes());
            heads.extend_from_slice(&(e.payload.len() as u64).to_le_bytes());
        }
        // The file, in order: the prelude, then header and payload per
        // entry, then the trailer.
        let (prelude, headers) = heads.split_at(PRELUDE);
        let mut parts: Vec<&[u8]> = Vec::with_capacity(2 * entries.len() + 2);
        parts.push(prelude);
        for (header, e) in headers.chunks_exact(ENTRY_HEADER).zip(entries) {
            parts.push(header);
            parts.push(e.payload);
        }
        let mut sum = Fletcher64::new();
        sum.update(&prelude[SLOT_MAGIC.len()..]);
        parts[1..].iter().for_each(|p| sum.update(p));
        let trailer = sum.digest().to_le_bytes();
        parts.push(&trailer);

        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.slot_path(slot))?;
        let mut iov: Vec<IoSlice<'_>> = parts.iter().map(|p| IoSlice::new(p)).collect();
        let mut left = &mut iov[..];
        while !left.is_empty() {
            match file.write_vectored(left) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut left, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        file.sync_data()?;
        Ok(parts.iter().map(|p| p.len() as u64).sum())
    }

    /// Read and validate slot `slot`.
    pub fn read(&self, slot: u8) -> Result<SlotData, SlotError> {
        let path = self.slot_path(slot);
        let mut buf = Vec::new();
        match File::open(&path) {
            Ok(mut f) => f.read_to_end(&mut buf).map_err(SlotError::Io)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(SlotError::Missing),
            Err(e) => return Err(SlotError::Io(e)),
        };
        decode_slot(&buf)
    }
}

fn decode_slot(buf: &[u8]) -> Result<SlotData, SlotError> {
    let corrupt = |why: &str| SlotError::Corrupt(why.to_string());
    if buf.len() < SLOT_MAGIC.len() + 8 + 8 + 8 {
        return Err(corrupt("shorter than an empty slot"));
    }
    if &buf[..SLOT_MAGIC.len()] != SLOT_MAGIC {
        return Err(corrupt("bad slot magic"));
    }
    let body = &buf[SLOT_MAGIC.len()..buf.len() - 8];
    let trailer = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8 bytes"));
    if fletcher64(body) != trailer {
        return Err(corrupt("fletcher trailer mismatch"));
    }
    let u64_at = |i: usize| -> u64 { u64::from_le_bytes(body[i..i + 8].try_into().expect("8")) };
    let epoch = u64_at(0);
    let count = u64_at(8);
    let mut entries = Vec::new();
    let mut i = 16usize;
    for _ in 0..count {
        if i + 1 + 8 + 8 + 8 > body.len() {
            return Err(corrupt("entry header past end of body"));
        }
        let replica = body[i];
        let rank = u64_at(i + 1);
        let iteration = u64_at(i + 9);
        let len = u64_at(i + 17);
        i += 25;
        if len > MAX_ENTRY_LEN || i + len as usize > body.len() {
            return Err(corrupt("entry payload past end of body"));
        }
        entries.push(SlotEntry {
            replica,
            rank,
            iteration,
            payload: body[i..i + len as usize].to_vec(),
        });
        i += len as usize;
    }
    if i != body.len() {
        return Err(corrupt("trailing bytes after last entry"));
    }
    Ok(SlotData { epoch, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(name: &str) -> SlotStore {
        let dir = std::env::temp_dir()
            .join(format!("acr-slot-test-{}", std::process::id()))
            .join(name);
        SlotStore::new(dir)
    }

    fn sample(epoch: u64) -> SlotData {
        SlotData {
            epoch,
            entries: vec![
                SlotEntry {
                    replica: 0,
                    rank: 0,
                    iteration: 40,
                    payload: vec![1, 2, 3, 4],
                },
                SlotEntry {
                    replica: 1,
                    rank: 1,
                    iteration: 40,
                    payload: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trip_both_slots() {
        let s = store("roundtrip");
        s.write(0, &sample(3)).unwrap();
        s.write(1, &sample(4)).unwrap();
        assert_eq!(s.read(0).unwrap(), sample(3));
        assert_eq!(s.read(1).unwrap(), sample(4));
    }

    /// The slot image as it was built before the streaming writer: the
    /// whole body copied into one buffer, checksummed in one pass.
    fn reference_image(data: &SlotData) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&data.epoch.to_le_bytes());
        body.extend_from_slice(&(data.entries.len() as u64).to_le_bytes());
        for e in &data.entries {
            body.push(e.replica);
            body.extend_from_slice(&e.rank.to_le_bytes());
            body.extend_from_slice(&e.iteration.to_le_bytes());
            body.extend_from_slice(&(e.payload.len() as u64).to_le_bytes());
            body.extend_from_slice(&e.payload);
        }
        let mut image = SLOT_MAGIC.to_vec();
        image.extend_from_slice(&body);
        image.extend_from_slice(&fletcher64(&body).to_le_bytes());
        image
    }

    #[test]
    fn streamed_slot_is_byte_identical_to_the_copied_image() {
        let s = store("format");
        // Odd payload lengths, so header pieces and payloads meet off any
        // word boundary of the running checksum; and the empty epoch.
        let mut data = sample(9);
        data.entries.push(SlotEntry {
            replica: 1,
            rank: 3,
            iteration: 41,
            payload: (0..=250u8).cycle().take(70_001).collect(),
        });
        data.entries.push(SlotEntry {
            replica: 0,
            rank: 2,
            iteration: 40,
            payload: vec![0xEE; 3],
        });
        for data in [data, SlotData::default()] {
            let want = reference_image(&data);
            assert_eq!(s.write(0, &data).unwrap(), want.len() as u64);
            assert_eq!(std::fs::read(s.slot_path(0)).unwrap(), want);
            let borrowed: Vec<SlotEntryRef<'_>> = data
                .entries
                .iter()
                .map(|e| SlotEntryRef {
                    replica: e.replica,
                    rank: e.rank,
                    iteration: e.iteration,
                    payload: &e.payload,
                })
                .collect();
            let n = s.write_entries(1, data.epoch, &borrowed).unwrap();
            assert_eq!(n, want.len() as u64);
            assert_eq!(std::fs::read(s.slot_path(1)).unwrap(), want);
            assert_eq!(s.read(1).unwrap(), data);
        }
    }

    #[test]
    fn missing_slot() {
        assert!(matches!(store("missing").read(0), Err(SlotError::Missing)));
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let s = store("flip");
        s.write(0, &sample(7)).unwrap();
        let clean = std::fs::read(s.slot_path(0)).unwrap();
        for pos in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[pos] ^= 0x10;
            std::fs::write(s.slot_path(0), &dirty).unwrap();
            assert!(
                matches!(s.read(0), Err(SlotError::Corrupt(_))),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let s = store("trunc");
        s.write(0, &sample(7)).unwrap();
        let clean = std::fs::read(s.slot_path(0)).unwrap();
        for cut in 0..clean.len() {
            std::fs::write(s.slot_path(0), &clean[..cut]).unwrap();
            assert!(
                matches!(s.read(0), Err(SlotError::Corrupt(_))),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn overwrite_replaces_epoch() {
        let s = store("overwrite");
        s.write(0, &sample(1)).unwrap();
        s.write(0, &sample(2)).unwrap();
        assert_eq!(s.read(0).unwrap().epoch, 2);
    }

    #[test]
    fn error_display() {
        assert_eq!(SlotError::Missing.to_string(), "slot file missing");
        assert!(SlotError::Corrupt("x".into()).to_string().contains('x'));
    }
}
