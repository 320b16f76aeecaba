//! # acr-store — durable state for driver crash-restart
//!
//! Every failure domain in the reproduction is covered except the driver
//! itself: node crashes promote spares, SDCs roll back to verified
//! checkpoints, but if the *driver process* dies, every job dies with it.
//! This crate is the persistence substrate that closes that gap, split
//! along the classic event-sourcing line:
//!
//! * **events = what happened** — [`EventLog`], an append-only on-disk
//!   journal of driver decisions (job admission, identity and buddy-map
//!   changes, fired fault triggers, committed checkpoint epochs). Records
//!   are length-prefixed and carry a per-record Fletcher-64 trailer — the
//!   same checksum kernel the wire protocol uses — so the byte-scanning
//!   reader ([`scan_log`]) self-heals over torn tails and bit-flipped
//!   garbage: every intact record is recovered, nothing ever panics.
//! * **checkpoints = what we believe** — [`SlotStore`], two alternating
//!   whole-file checkpoint slots (primary/rollback). A torn slot write can
//!   only ever damage the slot being written; the other slot still holds
//!   the previous committed epoch, giving recovery a deterministic
//!   fallback.
//!
//! Recovery reads the log, picks the newest epoch-commit record whose slot
//! validates, and reports what it did in a machine-readable
//! [`RecoveryReport`]: which source was used (`primary` / `rollback` /
//! `none`), how many records were replayed vs. skipped, and actionable
//! diagnostics when it had to fail closed.
//!
//! The crate is deliberately generic: records are opaque byte payloads and
//! slot entries are opaque per-node checkpoint bodies. The driver-specific
//! record schema lives in `acr-runtime`.

#![warn(missing_docs)]

mod eventlog;
mod jobs;
mod report;
mod slots;

pub use eventlog::{scan_bytes, scan_log, EventLog, LogScan, LogTailer, MAX_RECORD_LEN};
pub use jobs::{job_store_dir, list_job_stores, sanitize_job_name, JobStoreEntry, JOBS_DIR};
pub use report::RecoveryReport;
pub use slots::{SlotData, SlotEntry, SlotEntryRef, SlotError, SlotStore};
