//! Read-side view of a driver's `persist_dir` store: fold the binary
//! journal into an [`acr_obs::StatusModel`] without resuming the job.
//!
//! The durable journal (PR 7) records driver *decisions* — admission,
//! round boundaries, deaths, promotions, epoch commits — as compact binary
//! records, not obs events. This module replays those records and
//! synthesizes the equivalent structured events, so the exact same
//! [`StatusModel`] fold serves three sources: the live recorder rings, a
//! JSONL trace, and a dead driver's store. That is what lets `acr-top
//! --store <dir>` show the per-node phase grid and the abandoned capture
//! of a driver that was killed mid-round.
//!
//! Timestamps: only epoch-commit records carry the job clock, so every
//! synthesized event is stamped with the last committed time — a monotone
//! approximation that is exact at commit boundaries.
//!
//! Incremental by construction: the view sits on an
//! [`acr_store::LogTailer`], so [`StoreView::refresh`] reads only the
//! bytes the driver appended since the last call — the store-follow mode
//! of `acr-top` polls this without ever re-scanning the file.

use crate::persist::{DriverRecord, LOG_FILE, NO_NODE};
use acr_obs::{EventKind, RecordedEvent, StatusModel, DRIVER_NODE};
use acr_store::LogTailer;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// A tailing, replayable view over one `persist_dir`.
#[derive(Debug)]
pub struct StoreView {
    dir: PathBuf,
    tailer: LogTailer,
    model: StatusModel,
    /// Synthetic sequence counter for replayed events.
    seq: u64,
    /// Last committed job-clock time (stamps synthesized events).
    t: f64,
    /// Current holder identity: node -> (replica, rank).
    identity: BTreeMap<u64, (u8, u64)>,
    scheme: Option<acr_core::Scheme>,
    records: u64,
    decode_errors: u64,
    closed: Option<bool>,
}

impl StoreView {
    /// Open a view over `dir` (the job's `persist_dir`). The journal need
    /// not exist yet; [`StoreView::refresh`] keeps returning 0 until it
    /// does.
    pub fn open(dir: impl AsRef<Path>) -> StoreView {
        let dir = dir.as_ref().to_path_buf();
        let tailer = LogTailer::new(dir.join(LOG_FILE));
        StoreView {
            dir,
            tailer,
            model: StatusModel::default(),
            seq: 0,
            t: 0.0,
            identity: BTreeMap::new(),
            scheme: None,
            records: 0,
            decode_errors: 0,
            closed: None,
        }
    }

    /// The store directory this view replays.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Pull and fold any records appended since the last refresh; returns
    /// how many new records were folded.
    pub fn refresh(&mut self) -> io::Result<u64> {
        let new = self.tailer.poll()?;
        let mut folded = 0u64;
        for payload in new {
            match DriverRecord::decode(&payload) {
                Ok(record) => {
                    self.fold_record(&record);
                    self.records += 1;
                    folded += 1;
                }
                Err(_) => self.decode_errors += 1,
            }
        }
        Ok(folded)
    }

    /// Journal records folded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records that validated on disk but failed to decode (schema drift
    /// or in-record corruption the Fletcher trailer cannot see).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Garbage bytes the underlying tailer skipped while resynchronizing.
    pub fn skipped_bytes(&self) -> u64 {
        self.tailer.skipped_bytes()
    }

    /// Whether the journal holds a job-close record, and if so whether the
    /// job completed. `None` means the journal just *stops* — the
    /// signature of a dead or killed driver.
    pub fn closed(&self) -> Option<bool> {
        self.closed
    }

    /// The folded status. A journal without a job-close record is treated
    /// as a dead driver: the model is marked interrupted and an open round
    /// becomes the abandoned capture. (For a store being written by a
    /// *live* driver, prefer the driver's own `/status` endpoint, which
    /// can tell the difference.)
    pub fn status(&self) -> StatusModel {
        let mut m = self.model.clone();
        if self.closed.is_none() {
            m.mark_source_ended();
        }
        m
    }

    fn emit(&mut self, node: u32, kind: EventKind) {
        let ev = RecordedEvent {
            seq: self.seq,
            t: self.t,
            node,
            kind,
        };
        self.seq += 1;
        self.model.apply(&ev);
    }

    fn fold_record(&mut self, record: &DriverRecord) {
        match record {
            DriverRecord::JobAdmitted(a) => {
                self.scheme = Some(a.scheme);
                self.identity.clear();
                for n in 0..2 * a.ranks {
                    let replica = (n >= a.ranks) as u8;
                    self.identity.insert(n, (replica, n % a.ranks));
                }
                self.emit(
                    DRIVER_NODE,
                    EventKind::JobStart {
                        scheme: a.scheme.name().to_string(),
                        detection: a.detection.name().to_string(),
                        ranks: a.ranks as u32,
                        spares: a.spares as u32,
                    },
                );
            }
            DriverRecord::RoundOpened { round } => {
                self.emit(DRIVER_NODE, EventKind::RoundStart { round: *round });
            }
            DriverRecord::TriggerFired { seq, node } => {
                let kind = if *node == NO_NODE {
                    format!("scripted trigger #{seq}")
                } else {
                    format!("scripted trigger #{seq} on node {node}")
                };
                self.emit(DRIVER_NODE, EventKind::FaultInjected { kind, iteration: 0 });
            }
            DriverRecord::NodeDead { node } => {
                let (replica, rank) = self.identity.get(node).copied().unwrap_or((0, 0));
                self.emit(
                    DRIVER_NODE,
                    EventKind::NodeDead {
                        dead: *node as u32,
                        replica,
                        rank: rank as u32,
                    },
                );
            }
            DriverRecord::SparePromoted {
                dead,
                spare,
                replica,
                rank,
            } => {
                self.identity.remove(dead);
                self.identity.insert(*spare, (*replica, *rank));
                let scheme = self.scheme.unwrap_or(acr_core::Scheme::Strong);
                self.emit(
                    DRIVER_NODE,
                    EventKind::RecoveryStart {
                        scheme: scheme.name().to_string(),
                        class: scheme.sdc_exposure_class().to_string(),
                        dead: *dead as u32,
                        spare: *spare as u32,
                    },
                );
            }
            DriverRecord::EpochCommit(c) => {
                self.t = self.t.max(c.t);
                self.emit(
                    DRIVER_NODE,
                    EventKind::RoundVerdict {
                        round: c.round,
                        iteration: c.iteration,
                        clean: true,
                    },
                );
            }
            DriverRecord::JobClosed { completed } => {
                self.closed = Some(*completed);
                self.emit(
                    DRIVER_NODE,
                    EventKind::JobEnd {
                        completed: *completed,
                    },
                );
            }
        }
    }
}

/// One-shot fold: scan `dir`'s journal end-to-end and return the status.
/// Errors if the journal file does not exist (nothing was ever persisted
/// there — likely a wrong path, which silence would hide).
pub fn fold_store(dir: impl AsRef<Path>) -> io::Result<StatusModel> {
    let dir = dir.as_ref();
    if !dir.join(LOG_FILE).exists() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no {} in {}", LOG_FILE, dir.display()),
        ));
    }
    let mut view = StoreView::open(dir);
    view.refresh()?;
    Ok(view.status())
}
