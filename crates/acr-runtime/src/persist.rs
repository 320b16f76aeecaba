//! Driver persistence: journal records, the durable store wrapper, and the
//! resume planner (DESIGN.md §11).
//!
//! The split follows the store's motto — *events are what happened,
//! checkpoints are what we believe*. The journal records driver decisions
//! (admission, fired triggers, deaths, promotions, committed epochs); the
//! slot store holds the two most recent verified checkpoint payloads. A
//! resume scans the journal with the self-healing reader, picks the last
//! commit whose slot validates (the primary; the previous commit's slot is
//! the rollback), replays the pre-commit layout history, and re-arms only
//! the scripted faults whose effects are not already part of committed
//! history.
//!
//! Durability contract: a record that decides something is fsynced before
//! the decision takes effect; `RoundOpened` marks a position and is made
//! durable by the next record's fsync ([`DriverStore::append`]). An
//! epoch's slot is fsynced before its `EpochCommit` is appended, and both
//! happen *after* the round is released — the commit trails the verdict by
//! one capture, during which the driver journals nothing else, and a
//! resume restores the last epoch whose commit made it to disk.
//!
//! Record codec: a [`DriverRecord`] is written with the wire's `put_*`
//! and read through `wire::Reader` — one codec for frames, handshakes and
//! journal records — so a journal payload fails closed on exactly what a
//! frame body does: an unknown tag, a scheme or detection byte past its
//! table, a flag other than 0 or 1, a count the payload cannot hold,
//! trailing bytes. The layout (DESIGN.md §11) is pinned by
//! `tests::journal_record_layouts_are_pinned`.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::Arc;

use acr_core::{DetectionMethod, Scheme};
use acr_fault::{FaultAction, FaultScript};
use acr_obs::{EventKind, Recorder, DRIVER_NODE};
use acr_store::{scan_log, EventLog, RecoveryReport, SlotEntryRef, SlotStore};
use bytes::Bytes;

use crate::wire::{
    put_f64, put_f64s, put_str, put_tag, put_u32, put_u64, unknown, Reader, WireError,
};

/// File name of the driver journal inside a persist dir.
pub(crate) const LOG_FILE: &str = "events.log";
/// File name of the machine-readable recovery report a resume writes.
pub(crate) const REPORT_FILE: &str = "recovery_report.json";

/// `TriggerFired::node` when the fire has no single target node.
pub(crate) const NO_NODE: u64 = u64::MAX;

/// Everything the driver journals. One record per durable decision; the
/// on-disk form is a tag byte plus little-endian fields, written and read
/// with the wire's codec (`wire.rs`, DESIGN §11 has the table), small
/// enough that the fsync dominates the append cost.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DriverRecord {
    /// The job was admitted with this configuration and fault script.
    /// Always the first record; a resume reconstructs the job from it.
    JobAdmitted(AdmitRecord),
    /// A global checkpoint round opened. Marks the capture boundary for
    /// trigger filtering: a fault fired *before* the committing round
    /// opened is reflected in the committed state (or was already rolled
    /// back); one fired after the round opened landed on post-pack live
    /// state that the resume discards, so it must fire again.
    RoundOpened {
        /// Driver round id.
        round: u64,
    },
    /// Scripted fault `seq` (index into the admitted script) fired —
    /// journaled when the driver sends the injection for driver-side
    /// triggers, and when the node's `FaultInjected` receipt arrives for
    /// node-local iteration triggers. `node` is the targeted node for
    /// `CrashSpare` (whose corpse a resume must re-halt), [`NO_NODE`]
    /// otherwise.
    TriggerFired { seq: u64, node: u64 },
    /// `node` was declared dead.
    NodeDead { node: u64 },
    /// `spare` assumed the identity `(replica, rank)` that `dead` held.
    SparePromoted {
        dead: u64,
        spare: u64,
        replica: u8,
        rank: u64,
    },
    /// A clean global round's checkpoints were durably written to `slot`.
    EpochCommit(CommitRecord),
    /// The job finished (or failed terminally); the journal is closed and
    /// refuses to resume.
    JobClosed { completed: bool },
}

/// The admitted job shape: everything a resume needs to rebuild the
/// [`crate::JobConfig`] and fault script without the caller's help.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AdmitRecord {
    pub ranks: u64,
    pub tasks_per_rank: u64,
    pub spares: u64,
    pub scheme: Scheme,
    pub detection: DetectionMethod,
    pub chunk_size: u64,
    pub checkpoint_interval: f64,
    pub heartbeat_period: f64,
    pub heartbeat_timeout: f64,
    pub max_duration: f64,
    pub delta_checkpoints: bool,
    /// Virtual-mode quantum in seconds; `None` means the job ran threaded,
    /// which a resume refuses (its timing cannot be reproduced).
    pub virtual_quantum: Option<f64>,
    /// The fault script in repro text form ([`FaultScript::to_repro`]).
    pub script: String,
}

/// One committed epoch: which slot holds the verified payloads plus the
/// driver-counter snapshot a resume restores.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CommitRecord {
    /// Driver round whose clean verdict this commit persists.
    pub round: u64,
    /// Slot (0/1) the payloads were written to; commits alternate.
    pub slot: u8,
    /// Job clock at the round's verdict, the instant the committed state
    /// (and every counter below) describes — the resumed clock starts here.
    pub t: f64,
    /// Application iteration of the committed checkpoints.
    pub iteration: u64,
    /// Driver round counter after the round, so resumed round ids stay
    /// unique and monotonic.
    pub round_counter: u64,
    pub checkpoints_verified: u64,
    pub sdc_rounds_detected: u64,
    pub rollbacks: u64,
    pub hard_errors_recovered: u64,
    pub unverified_recoveries: u64,
    pub restarts_from_beginning: u64,
    pub verified_round_starts: Vec<f64>,
    pub unverified_recoveries_at: Vec<f64>,
    pub sdc_injected_at: Vec<f64>,
    pub crashes_injected_at: Vec<f64>,
}

impl DriverRecord {
    /// Stable label for the flight recorder's `store_append` events.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            DriverRecord::JobAdmitted(_) => "admit",
            DriverRecord::RoundOpened { .. } => "round",
            DriverRecord::TriggerFired { .. } => "trigger",
            DriverRecord::NodeDead { .. } => "dead",
            DriverRecord::SparePromoted { .. } => "promote",
            DriverRecord::EpochCommit(_) => "commit",
            DriverRecord::JobClosed { .. } => "closed",
        }
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            DriverRecord::JobAdmitted(a) => {
                b.push(0);
                put_u64(&mut b, a.ranks);
                put_u64(&mut b, a.tasks_per_rank);
                put_u64(&mut b, a.spares);
                put_tag(&mut b, a.scheme);
                put_tag(&mut b, a.detection);
                put_u64(&mut b, a.chunk_size);
                put_f64(&mut b, a.checkpoint_interval);
                put_f64(&mut b, a.heartbeat_period);
                put_f64(&mut b, a.heartbeat_timeout);
                put_f64(&mut b, a.max_duration);
                b.push(a.delta_checkpoints as u8);
                // Reserved (once `delta_anchor_interval`): written as 0 and
                // skipped on read, so journals keep one byte layout.
                put_u32(&mut b, 0);
                match a.virtual_quantum {
                    None => b.push(0),
                    Some(q) => {
                        b.push(1);
                        put_f64(&mut b, q);
                    }
                }
                put_str(&mut b, &a.script);
            }
            DriverRecord::RoundOpened { round } => {
                b.push(1);
                put_u64(&mut b, *round);
            }
            DriverRecord::TriggerFired { seq, node } => {
                b.push(2);
                put_u64(&mut b, *seq);
                put_u64(&mut b, *node);
            }
            DriverRecord::NodeDead { node } => {
                b.push(3);
                put_u64(&mut b, *node);
            }
            DriverRecord::SparePromoted {
                dead,
                spare,
                replica,
                rank,
            } => {
                b.push(4);
                put_u64(&mut b, *dead);
                put_u64(&mut b, *spare);
                b.push(*replica);
                put_u64(&mut b, *rank);
            }
            DriverRecord::EpochCommit(c) => {
                b.push(5);
                put_u64(&mut b, c.round);
                b.push(c.slot);
                put_f64(&mut b, c.t);
                put_u64(&mut b, c.iteration);
                put_u64(&mut b, c.round_counter);
                put_u64(&mut b, c.checkpoints_verified);
                put_u64(&mut b, c.sdc_rounds_detected);
                put_u64(&mut b, c.rollbacks);
                put_u64(&mut b, c.hard_errors_recovered);
                put_u64(&mut b, c.unverified_recoveries);
                put_u64(&mut b, c.restarts_from_beginning);
                put_f64s(&mut b, &c.verified_round_starts);
                put_f64s(&mut b, &c.unverified_recoveries_at);
                put_f64s(&mut b, &c.sdc_injected_at);
                put_f64s(&mut b, &c.crashes_injected_at);
            }
            DriverRecord::JobClosed { completed } => {
                b.push(6);
                b.push(*completed as u8);
            }
        }
        b
    }

    pub(crate) fn decode(buf: &[u8]) -> Result<DriverRecord, WireError> {
        let mut r = Reader::new(buf);
        let rec = match r.u8()? {
            0 => DriverRecord::JobAdmitted(AdmitRecord {
                ranks: r.u64()?,
                tasks_per_rank: r.u64()?,
                spares: r.u64()?,
                scheme: r.tag()?,
                detection: r.tag()?,
                chunk_size: r.u64()?,
                checkpoint_interval: r.f64()?,
                heartbeat_period: r.f64()?,
                heartbeat_timeout: r.f64()?,
                max_duration: r.f64()?,
                delta_checkpoints: r.flag("delta_checkpoints")?,
                virtual_quantum: {
                    r.u32()?; // reserved
                    if r.flag("virtual_quantum")? {
                        Some(r.f64()?)
                    } else {
                        None
                    }
                },
                script: r.str()?,
            }),
            1 => DriverRecord::RoundOpened { round: r.u64()? },
            2 => DriverRecord::TriggerFired {
                seq: r.u64()?,
                node: r.u64()?,
            },
            3 => DriverRecord::NodeDead { node: r.u64()? },
            4 => DriverRecord::SparePromoted {
                dead: r.u64()?,
                spare: r.u64()?,
                replica: r.u8()?,
                rank: r.u64()?,
            },
            5 => DriverRecord::EpochCommit(CommitRecord {
                round: r.u64()?,
                // Slots alternate 0/1; a resume writes the next epoch to
                // `1 - slot`, so any other byte is refused here.
                slot: r.flag("EpochCommit.slot")?.into(),
                t: r.f64()?,
                iteration: r.u64()?,
                round_counter: r.u64()?,
                checkpoints_verified: r.u64()?,
                sdc_rounds_detected: r.u64()?,
                rollbacks: r.u64()?,
                hard_errors_recovered: r.u64()?,
                unverified_recoveries: r.u64()?,
                restarts_from_beginning: r.u64()?,
                verified_round_starts: r.f64s()?,
                unverified_recoveries_at: r.f64s()?,
                sdc_injected_at: r.f64s()?,
                crashes_injected_at: r.f64s()?,
            }),
            6 => DriverRecord::JobClosed {
                completed: r.flag("completed")?,
            },
            tag => return unknown("DriverRecord", tag),
        };
        r.finish()?;
        Ok(rec)
    }
}

/// The driver's durable store: the append-only journal plus the two
/// checkpoint slots, with every write mirrored into the flight recorder
/// (`store_append` events, `acr_store_*` counters; fsyncs counted as
/// issued) so the journaling overhead is measurable from any
/// [`crate::JobReport`].
pub(crate) struct DriverStore {
    log: EventLog,
    slots: SlotStore,
    /// The last two commits appended, oldest first: the only ones whose
    /// slots can still hold their epoch (see [`read_epoch`]).
    commits: Vec<CommitRecord>,
    rec: Arc<Recorder>,
}

impl DriverStore {
    /// Fresh store in `dir` (created if needed); truncates any previous
    /// journal.
    pub(crate) fn create(dir: &Path, rec: Arc<Recorder>) -> io::Result<DriverStore> {
        std::fs::create_dir_all(dir)?;
        Ok(DriverStore {
            log: EventLog::create(dir.join(LOG_FILE))?,
            slots: SlotStore::new(dir),
            commits: Vec::new(),
            rec,
        })
    }

    /// Reopen `dir` for a resumed run: the journal is compacted — rewritten
    /// to exactly the records the resume replayed (post-commit records
    /// describe abandoned work, except kill-driver fires, which the planner
    /// preserves so a second resume never re-arms the kill) — and appending
    /// continues from there. Slot files are left as they are.
    pub(crate) fn resume(
        dir: &Path,
        kept: &[DriverRecord],
        rec: Arc<Recorder>,
    ) -> io::Result<DriverStore> {
        let mut store = DriverStore::create(dir, rec)?;
        for r in kept {
            store.append(r)?;
        }
        Ok(store)
    }

    /// Append one journal record: synchronous, and fsynced before it
    /// returns — except `RoundOpened`. A round's opening decides nothing
    /// by itself; it marks a position, and only has to sit *before* the
    /// records read against it (its round's `EpochCommit`, a
    /// `TriggerFired`, `NodeDead` or `SparePromoted` after it). Each of
    /// those is fsynced, and an fsync covers the file up to itself, so the
    /// opening is durable by the time anything depends on it; lost with
    /// nothing after it, it is a round that never counted.
    pub(crate) fn append(&mut self, r: &DriverRecord) -> io::Result<()> {
        let synced = !matches!(r, DriverRecord::RoundOpened { .. });
        let payload = r.encode();
        let bytes = if synced {
            self.log.append(&payload)?
        } else {
            self.log.append_unsynced(&payload)?
        };
        self.note(r.kind(), bytes, synced);
        if let DriverRecord::EpochCommit(c) = r {
            if self.commits.len() == 2 {
                self.commits.remove(0);
            }
            self.commits.push(c.clone());
        }
        Ok(())
    }

    /// The newest epoch this store committed whose slot reads back valid
    /// ([`read_epoch`]): the newest durable line.
    pub(crate) fn newest_epoch(
        &self,
        ranks: usize,
        diagnostics: &mut Vec<String>,
    ) -> Option<(CommitRecord, SlotStates)> {
        let (i, _, states) = read_epoch(&self.slots, &self.commits, ranks, diagnostics)?;
        Some((self.commits[i].clone(), states))
    }

    /// Write one epoch's checkpoints to a slot (synchronous, fsynced).
    pub(crate) fn write_slot(
        &mut self,
        slot: u8,
        epoch: u64,
        entries: &[SlotEntryRef<'_>],
    ) -> io::Result<()> {
        let bytes = self.slots.write_entries(slot, epoch, entries)?;
        self.note("slot", bytes, true);
        Ok(())
    }

    fn note(&self, kind: &'static str, bytes: u64, synced: bool) {
        self.rec.emit_with(DRIVER_NODE, || EventKind::StoreAppend {
            kind: kind.to_string(),
            bytes,
        });
        self.rec.inc_counter("acr_store_appends_total", 1);
        self.rec.inc_counter("acr_store_bytes_total", bytes);
        self.rec
            .inc_counter("acr_store_fsyncs_total", synced as u64);
    }
}

/// One committed epoch read back from its slot, ready for `Install`:
/// `(replica, rank)` → `(iteration, digest, payload)`.
pub(crate) type SlotStates = BTreeMap<(u8, usize), (u64, u64, Bytes)>;

/// Read back the newest of `commits` (oldest first) whose slot validates:
/// it reads back whole, holds the epoch its commit names, and holds a state
/// for each of the job's `2·ranks` identities. Only the last two can, as
/// slots alternate. Returns the commit's index, "primary" (the newest) or
/// "rollback", and the states; `diagnostics` says why a slot was rejected.
pub(crate) fn read_epoch(
    slots: &SlotStore,
    commits: &[CommitRecord],
    ranks: usize,
    diagnostics: &mut Vec<String>,
) -> Option<(usize, &'static str, SlotStates)> {
    for (which, (i, c)) in commits.iter().enumerate().rev().take(2).enumerate() {
        let label = if which == 0 { "primary" } else { "rollback" };
        let data = match slots.read(c.slot) {
            Ok(data) if data.epoch == c.round => data,
            Ok(data) => {
                diagnostics.push(format!(
                    "{label} slot {} holds epoch {}, commit names epoch {}; rejected as stale",
                    c.slot, data.epoch, c.round
                ));
                continue;
            }
            Err(e) => {
                diagnostics.push(format!("{label} slot {} rejected: {e}", c.slot));
                continue;
            }
        };
        let mut states = SlotStates::new();
        for e in data.entries {
            if e.iteration != c.iteration {
                diagnostics.push(format!(
                    "slot entry ({},{}) at iteration {} disagrees with commit iteration {}",
                    e.replica, e.rank, e.iteration, c.iteration
                ));
            }
            let payload = Bytes::from(e.payload);
            let digest = acr_pup::fletcher64(&payload);
            states.insert((e.replica, e.rank as usize), (e.iteration, digest, payload));
        }
        if states.len() != 2 * ranks {
            diagnostics.push(format!(
                "{label} slot {} holds {} node states, job shape needs {}; rejected as partial",
                c.slot,
                states.len(),
                2 * ranks
            ));
            continue;
        }
        if which == 1 {
            diagnostics.push("primary slot unusable; falling back to rollback slot".into());
        }
        return Some((i, label, states));
    }
    None
}

/// A spare promotion the resume replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Promotion {
    pub dead: usize,
    pub spare: usize,
    pub replica: u8,
    pub rank: usize,
}

/// Everything [`ResumePlan::load`] distilled from a persist dir: the job
/// shape, the chosen checkpoint source, the layout history to replay, and
/// the trigger filter. The driver executes the plan; the plan never touches
/// live state.
#[derive(Debug)]
pub(crate) struct ResumePlan {
    pub admit: AdmitRecord,
    pub script: FaultScript,
    /// The chosen commit; `None` means no epoch ever committed and the job
    /// restarts from its initial state under the replayed layout.
    pub commit: Option<CommitRecord>,
    /// The chosen slot's states; empty when `commit` is `None`.
    pub slot_states: SlotStates,
    /// Nodes dead at the chosen commit, in declaration order.
    pub dead: Vec<usize>,
    /// Spare promotions up to the chosen commit, in order.
    pub promotions: Vec<Promotion>,
    /// Script indices whose effects are already part of committed history:
    /// the resume must not re-arm them.
    pub dropped_seqs: HashSet<usize>,
    /// Nodes killed by pre-commit `CrashSpare` fires: their corpse state
    /// is in no checkpoint, so the resume re-halts them explicitly.
    pub halt_targets: Vec<usize>,
    /// Records the compacted journal keeps (see [`DriverStore::resume`]).
    pub kept: Vec<DriverRecord>,
    /// Slot the next epoch commit writes to (commits alternate).
    pub next_slot: u8,
    /// The machine-readable summary of what this plan will do.
    pub report: RecoveryReport,
}

impl ResumePlan {
    /// Scan `dir` and build the plan. Fails closed — missing or corrupt
    /// prerequisites return an error plus a diagnostics-laden report, never
    /// a guessed state.
    pub(crate) fn load(dir: &Path) -> Result<ResumePlan, (String, RecoveryReport)> {
        let mut diagnostics: Vec<String> = Vec::new();
        let fail = |msg: String, mut diagnostics: Vec<String>| {
            diagnostics.push(msg.clone());
            let report = RecoveryReport {
                source: "failed".into(),
                diagnostics,
                ..RecoveryReport::default()
            };
            (msg, report)
        };

        let log_path = dir.join(LOG_FILE);
        let scan = match scan_log(&log_path) {
            Ok(s) => s,
            Err(e) => {
                return Err(fail(
                    format!("cannot read event log {}: {e}", log_path.display()),
                    diagnostics,
                ))
            }
        };
        if scan.missing_magic {
            diagnostics.push("event log file magic missing or damaged".into());
        }
        if scan.skipped_bytes > 0 {
            diagnostics.push(format!(
                "self-healing reader skipped {} garbage bytes",
                scan.skipped_bytes
            ));
        }
        let mut records = Vec::new();
        for (i, payload) in scan.records.iter().enumerate() {
            match DriverRecord::decode(payload) {
                Ok(r) => records.push(r),
                Err(e) => diagnostics.push(format!("record {i} undecodable: {e}")),
            }
        }

        let Some(DriverRecord::JobAdmitted(admit)) = records.first().cloned() else {
            return Err(fail(
                "journal has no admission record; nothing to resume".into(),
                diagnostics,
            ));
        };
        if admit.virtual_quantum.is_none() {
            return Err(fail(
                "journal was recorded under the threaded executor; only virtual-mode jobs \
                 can be resumed (their timing is reproducible)"
                    .into(),
                diagnostics,
            ));
        }
        for r in &records {
            if let DriverRecord::JobClosed { completed } = r {
                return Err(fail(
                    format!("journal is closed (completed={completed}); nothing to resume"),
                    diagnostics,
                ));
            }
        }
        let script = match FaultScript::parse(&admit.script) {
            Ok(s) => s,
            Err(e) => {
                return Err(fail(
                    format!("admitted fault script unparsable: {e}"),
                    diagnostics,
                ))
            }
        };

        // Choose the checkpoint source: the last commit whose slot
        // validates.
        let (positions, commits): (Vec<usize>, Vec<CommitRecord>) = records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r {
                DriverRecord::EpochCommit(c) => Some((i, c.clone())),
                _ => None,
            })
            .unzip();
        let chosen = read_epoch(
            &SlotStore::new(dir),
            &commits,
            admit.ranks as usize,
            &mut diagnostics,
        );
        if chosen.is_none() && !commits.is_empty() {
            return Err(fail(
                "no usable checkpoint slot: the journal names committed epochs but neither \
                 slot validates; refusing to resume from guessed state"
                    .into(),
                diagnostics,
            ));
        }
        let (commit_pos, commit, slot_states, source) = match chosen {
            Some((i, source, states)) => (positions[i], Some(commits[i].clone()), states, source),
            None => (usize::MAX, None, SlotStates::new(), "none"),
        };

        // The capture boundary: the committing round's RoundOpened record.
        // Faults fired before it are reflected in (or rolled back from) the
        // committed state; faults fired after it landed on post-pack live
        // state the resume discards, so they must fire again. With no
        // commit nothing was captured durably, so everything that fired is
        // dropped (usize::MAX boundary) — conservative, documented.
        let boundary = match &commit {
            Some(c) => records
                .iter()
                .enumerate()
                .take(commit_pos)
                .filter(
                    |(_, r)| matches!(r, DriverRecord::RoundOpened { round } if *round == c.round),
                )
                .map(|(i, _)| i)
                .next_back()
                .unwrap_or(commit_pos),
            None => usize::MAX,
        };

        let mut dead = Vec::new();
        let mut promotions = Vec::new();
        let mut fired: Vec<(usize, usize, u64)> = Vec::new(); // (pos, seq, node)
        for (i, r) in records.iter().enumerate() {
            match r {
                DriverRecord::TriggerFired { seq, node } => {
                    fired.push((i, *seq as usize, *node));
                }
                DriverRecord::NodeDead { node } if i <= commit_pos => dead.push(*node as usize),
                DriverRecord::SparePromoted {
                    dead: d,
                    spare,
                    replica,
                    rank,
                } if i <= commit_pos => promotions.push(Promotion {
                    dead: *d as usize,
                    spare: *spare as usize,
                    replica: *replica,
                    rank: *rank as usize,
                }),
                _ => {}
            }
        }

        let mut dropped_seqs = HashSet::new();
        let mut halt_targets = Vec::new();
        for (seq, f) in script.faults.iter().enumerate() {
            let fires: Vec<&(usize, usize, u64)> =
                fired.iter().filter(|(_, s, _)| *s == seq).collect();
            match f.action {
                // A driver kill that fired must never re-arm, no matter
                // where it sits relative to the commit — re-arming it would
                // kill the resumed run immediately, forever.
                FaultAction::KillDriver => {
                    if !fires.is_empty() {
                        dropped_seqs.insert(seq);
                    }
                }
                // A spare corpse is in no checkpoint: replay the kill as an
                // explicit halt instead of re-injecting (re-injection would
                // double-count the fault).
                FaultAction::CrashSpare => {
                    for &&(pos, _, node) in &fires {
                        if pos <= commit_pos {
                            dropped_seqs.insert(seq);
                            if node != NO_NODE {
                                halt_targets.push(node as usize);
                            }
                        }
                    }
                }
                _ => {
                    if fires.iter().any(|(pos, _, _)| *pos < boundary) {
                        dropped_seqs.insert(seq);
                    }
                }
            }
        }

        let mut kept = Vec::new();
        let mut records_replayed = 0u64;
        for (i, r) in records.iter().enumerate() {
            if i <= commit_pos {
                records_replayed += 1;
                kept.push(r.clone());
            } else if matches!(r, DriverRecord::TriggerFired { seq, .. }
                if matches!(script.faults.get(*seq as usize).map(|f| f.action),
                    Some(FaultAction::KillDriver)))
            {
                kept.push(r.clone());
            }
        }
        let records_skipped = records.len() as u64 - records_replayed;

        let next_slot = commit.as_ref().map(|c| 1 - c.slot).unwrap_or(0);
        let report = RecoveryReport {
            source: source.to_string(),
            epoch: commit.as_ref().map(|c| c.round).unwrap_or(0),
            iteration: commit.as_ref().map(|c| c.iteration).unwrap_or(0),
            records_replayed,
            records_skipped,
            bytes_skipped: scan.skipped_bytes,
            diagnostics,
        };
        Ok(ResumePlan {
            admit,
            script,
            commit,
            slot_states,
            dead,
            promotions,
            dropped_seqs,
            halt_targets,
            kept,
            next_slot,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_obs::ObsConfig;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("acr-persist-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rec() -> Arc<Recorder> {
        Recorder::new(ObsConfig::default(), 1, Arc::new(|| 0.0))
    }

    fn admit(script: &str) -> AdmitRecord {
        AdmitRecord {
            ranks: 2,
            tasks_per_rank: 1,
            spares: 2,
            scheme: Scheme::Medium,
            detection: DetectionMethod::ChunkedChecksum,
            chunk_size: 256,
            checkpoint_interval: 0.06,
            heartbeat_period: 0.005,
            heartbeat_timeout: 0.04,
            max_duration: 30.0,
            delta_checkpoints: false,
            virtual_quantum: Some(0.001),
            script: script.to_string(),
        }
    }

    fn commit(round: u64, slot: u8, iteration: u64) -> CommitRecord {
        CommitRecord {
            round,
            slot,
            t: round as f64 * 0.06,
            iteration,
            round_counter: round,
            checkpoints_verified: round,
            sdc_rounds_detected: 0,
            rollbacks: 0,
            hard_errors_recovered: 0,
            unverified_recoveries: 0,
            restarts_from_beginning: 0,
            verified_round_starts: vec![0.01 * round as f64],
            unverified_recoveries_at: vec![],
            sdc_injected_at: vec![],
            crashes_injected_at: vec![],
        }
    }

    /// Write a 2×2 epoch of 16-byte payloads at `iteration` to `slot`.
    fn write_slot(store: &mut DriverStore, slot: u8, epoch: u64, iteration: u64) {
        let payloads: Vec<[u8; 16]> = (0..4u8).map(|n| [(n >> 1) ^ (n & 1); 16]).collect();
        let entries: Vec<SlotEntryRef<'_>> = (0..4u8)
            .map(|n| SlotEntryRef {
                replica: n >> 1,
                rank: (n & 1) as u64,
                iteration,
                payload: &payloads[n as usize],
            })
            .collect();
        store.write_slot(slot, epoch, &entries).unwrap();
    }

    #[test]
    fn every_record_round_trips() {
        let records = vec![
            DriverRecord::JobAdmitted(admit("crash replica=0 rank=1 at=0.25\n")),
            DriverRecord::JobAdmitted(AdmitRecord {
                virtual_quantum: None,
                ..admit("")
            }),
            DriverRecord::RoundOpened { round: 7 },
            DriverRecord::TriggerFired {
                seq: 3,
                node: NO_NODE,
            },
            DriverRecord::NodeDead { node: 2 },
            DriverRecord::SparePromoted {
                dead: 2,
                spare: 4,
                replica: 1,
                rank: 0,
            },
            DriverRecord::EpochCommit(commit(9, 1, 160)),
            DriverRecord::JobClosed { completed: true },
        ];
        for r in records {
            let back = DriverRecord::decode(&r.encode()).expect("decodes");
            assert_eq!(r, back);
        }
    }

    /// The journal's bytes, record by record: a tag, then little-endian
    /// fields of fixed width, a `u32` count ahead of each `f64` list and
    /// of the script. Journals outlive the build that wrote them, so any
    /// change here is a format break.
    #[test]
    fn journal_record_layouts_are_pinned() {
        let u = |v: u64| v.to_le_bytes();
        let f = |v: f64| v.to_bits().to_le_bytes();
        let n = |v: u32| v.to_le_bytes();
        let pinned: Vec<(DriverRecord, Vec<u8>)> = vec![
            (
                DriverRecord::JobAdmitted(AdmitRecord {
                    delta_checkpoints: true,
                    ..admit("spare at=0.02\n")
                }),
                [
                    &[0u8][..],
                    &u(2), // ranks
                    &u(1), // tasks_per_rank
                    &u(2), // spares
                    &[1],  // scheme: medium
                    &[2],  // detection: chunked checksum
                    &u(256),
                    &f(0.06),  // checkpoint_interval
                    &f(0.005), // heartbeat_period
                    &f(0.04),  // heartbeat_timeout
                    &f(30.0),  // max_duration
                    &[1],      // delta_checkpoints
                    &n(0),     // reserved
                    &[1],      // virtual_quantum: Some
                    &f(0.001),
                    &n(14),
                    b"spare at=0.02\n",
                ]
                .concat(),
            ),
            (
                DriverRecord::JobAdmitted(AdmitRecord {
                    virtual_quantum: None,
                    ..admit("")
                }),
                [
                    &[0u8][..],
                    &u(2),
                    &u(1),
                    &u(2),
                    &[1, 2],
                    &u(256),
                    &f(0.06),
                    &f(0.005),
                    &f(0.04),
                    &f(30.0),
                    &[0],
                    &n(0),
                    &[0], // virtual_quantum: None
                    &n(0),
                ]
                .concat(),
            ),
            (
                DriverRecord::RoundOpened { round: 7 },
                [&[1u8][..], &u(7)].concat(),
            ),
            (
                DriverRecord::TriggerFired {
                    seq: 3,
                    node: NO_NODE,
                },
                [&[2u8][..], &u(3), &[0xFF; 8]].concat(),
            ),
            (
                DriverRecord::NodeDead { node: 2 },
                [&[3u8][..], &u(2)].concat(),
            ),
            (
                DriverRecord::SparePromoted {
                    dead: 2,
                    spare: 4,
                    replica: 1,
                    rank: 5,
                },
                [&[4u8][..], &u(2), &u(4), &[1], &u(5)].concat(),
            ),
            (
                DriverRecord::EpochCommit(CommitRecord {
                    rollbacks: 6,
                    sdc_injected_at: vec![0.25, 0.5],
                    ..commit(9, 1, 160)
                }),
                [
                    &[5u8][..],
                    &u(9), // round
                    &[1],  // slot
                    &f(9.0 * 0.06),
                    &u(160), // iteration
                    &u(9),   // round_counter
                    &u(9),   // checkpoints_verified
                    &u(0),   // sdc_rounds_detected
                    &u(6),   // rollbacks
                    &u(0),   // hard_errors_recovered
                    &u(0),   // unverified_recoveries
                    &u(0),   // restarts_from_beginning
                    &n(1),
                    &f(0.01 * 9.0), // verified_round_starts
                    &n(0),          // unverified_recoveries_at
                    &n(2),
                    &f(0.25),
                    &f(0.5), // sdc_injected_at
                    &n(0),   // crashes_injected_at
                ]
                .concat(),
            ),
            (DriverRecord::JobClosed { completed: true }, vec![6, 1]),
        ];
        for (record, bytes) in pinned {
            assert_eq!(record.encode(), bytes, "{record:?}");
            assert_eq!(DriverRecord::decode(&bytes).expect("decodes"), record);
        }
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(DriverRecord::decode(&[]).is_err());
        assert!(DriverRecord::decode(&[99]).is_err());
        let full = DriverRecord::RoundOpened { round: 7 }.encode();
        assert!(DriverRecord::decode(&full[..full.len() - 1]).is_err());
        let mut padded = full;
        padded.push(0);
        assert!(DriverRecord::decode(&padded).is_err());
    }

    /// A byte outside its table is refused, never guessed: an unknown
    /// scheme or detection tag, an option tag, bool or slot that is
    /// neither 0 nor 1, and a list count the record cannot hold.
    #[test]
    fn decode_rejects_unknown_tags_and_flags() {
        let admitted = DriverRecord::JobAdmitted(admit("")).encode();
        // Offsets: tag 0, three u64s, scheme 25, detection 26, chunk size
        // and four f64s, delta flag 67, reserved 68..72, quantum tag 72.
        for (at, byte) in [(25, 3), (26, 3), (72, 2), (67, 2)] {
            let mut bad = admitted.clone();
            bad[at] = byte;
            assert!(DriverRecord::decode(&bad).is_err(), "byte {at} = {byte}");
        }
        let closed = DriverRecord::JobClosed { completed: false }.encode();
        assert!(DriverRecord::decode(&[closed[0], 2]).is_err());
        // Tag, round, slot 9, t and eight u64s: the first list's count is
        // at 82.
        let committed = DriverRecord::EpochCommit(commit(9, 1, 160)).encode();
        let mut bad = committed.clone();
        bad[9] = 2;
        assert!(DriverRecord::decode(&bad).is_err(), "slot 2");
        let mut bad = committed;
        bad[82..86].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(DriverRecord::decode(&bad).is_err());
    }

    #[test]
    fn load_picks_the_primary_commit() {
        let dir = tmp("primary");
        let mut store = DriverStore::create(&dir, rec()).unwrap();
        store.append(&DriverRecord::JobAdmitted(admit(""))).unwrap();
        for (round, slot) in [(3u64, 0u8), (5, 1)] {
            store.append(&DriverRecord::RoundOpened { round }).unwrap();
            write_slot(&mut store, slot, round, round * 20);
            store
                .append(&DriverRecord::EpochCommit(commit(round, slot, round * 20)))
                .unwrap();
        }
        let plan = ResumePlan::load(&dir).expect("plan");
        assert_eq!(plan.report.source, "primary");
        assert_eq!(plan.report.epoch, 5);
        assert_eq!(plan.report.iteration, 100);
        assert_eq!(plan.slot_states.len(), 4);
        assert_eq!(plan.next_slot, 0);
        assert_eq!(plan.report.records_replayed, 5);
        assert_eq!(plan.report.records_skipped, 0);
    }

    #[test]
    fn corrupt_primary_falls_back_to_rollback_slot() {
        let dir = tmp("rollback");
        let mut store = DriverStore::create(&dir, rec()).unwrap();
        store.append(&DriverRecord::JobAdmitted(admit(""))).unwrap();
        for (round, slot) in [(3u64, 0u8), (5, 1)] {
            store.append(&DriverRecord::RoundOpened { round }).unwrap();
            write_slot(&mut store, slot, round, round * 20);
            store
                .append(&DriverRecord::EpochCommit(commit(round, slot, round * 20)))
                .unwrap();
        }
        // Round 5 committed to slot 1: flip a byte in its body.
        let path = SlotStore::new(&dir).slot_path(1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();

        let plan = ResumePlan::load(&dir).expect("plan");
        assert_eq!(plan.report.source, "rollback");
        assert_eq!(plan.report.epoch, 3);
        assert_eq!(plan.report.iteration, 60);
        assert_eq!(
            plan.report.records_skipped, 2,
            "the round-5 records roll back"
        );
        assert!(plan
            .report
            .diagnostics
            .iter()
            .any(|d| d.contains("falling back to rollback")));
    }

    #[test]
    fn both_slots_unusable_fails_closed() {
        let dir = tmp("guardrail");
        let mut store = DriverStore::create(&dir, rec()).unwrap();
        store.append(&DriverRecord::JobAdmitted(admit(""))).unwrap();
        store
            .append(&DriverRecord::EpochCommit(commit(4, 0, 80)))
            .unwrap();
        let (msg, report) = ResumePlan::load(&dir).expect_err("must fail closed");
        assert!(msg.contains("refusing to resume"), "{msg}");
        assert_eq!(report.source, "failed");
        assert!(report.diagnostics.iter().any(|d| d.contains("slot")));
    }

    #[test]
    fn closed_journal_refuses_resume() {
        let dir = tmp("closed");
        let mut store = DriverStore::create(&dir, rec()).unwrap();
        store.append(&DriverRecord::JobAdmitted(admit(""))).unwrap();
        store
            .append(&DriverRecord::JobClosed { completed: true })
            .unwrap();
        let (msg, _) = ResumePlan::load(&dir).expect_err("closed journal");
        assert!(msg.contains("closed"), "{msg}");
    }

    #[test]
    fn threaded_journal_refuses_resume() {
        let dir = tmp("threaded");
        let mut store = DriverStore::create(&dir, rec()).unwrap();
        store
            .append(&DriverRecord::JobAdmitted(AdmitRecord {
                virtual_quantum: None,
                ..admit("")
            }))
            .unwrap();
        let (msg, _) = ResumePlan::load(&dir).expect_err("threaded journal");
        assert!(msg.contains("threaded"), "{msg}");
    }

    #[test]
    fn trigger_filter_honors_the_capture_boundary() {
        // Script: seq 0 fires before the committing round (dropped), seq 1
        // fires mid-round after the pack (kept), seq 2 is a driver kill
        // fired after the commit (dropped anywhere), seq 3 never fired
        // (kept).
        let script = "sdc replica=0 rank=0 seed=1 bits=1 at=0.01\n\
                      sdc replica=0 rank=1 seed=2 bits=1 at=0.05\n\
                      killdriver at=0.10\n\
                      crash replica=1 rank=0 at=0.50\n";
        let dir = tmp("filter");
        let mut store = DriverStore::create(&dir, rec()).unwrap();
        store
            .append(&DriverRecord::JobAdmitted(admit(script)))
            .unwrap();
        store
            .append(&DriverRecord::TriggerFired {
                seq: 0,
                node: NO_NODE,
            })
            .unwrap();
        store
            .append(&DriverRecord::RoundOpened { round: 2 })
            .unwrap();
        store
            .append(&DriverRecord::TriggerFired {
                seq: 1,
                node: NO_NODE,
            })
            .unwrap();
        write_slot(&mut store, 0, 2, 40);
        store
            .append(&DriverRecord::EpochCommit(commit(2, 0, 40)))
            .unwrap();
        store
            .append(&DriverRecord::TriggerFired {
                seq: 2,
                node: NO_NODE,
            })
            .unwrap();
        let plan = ResumePlan::load(&dir).expect("plan");
        assert!(plan.dropped_seqs.contains(&0), "pre-round fire is history");
        assert!(
            !plan.dropped_seqs.contains(&1),
            "mid-round fire landed on discarded live state; must re-fire"
        );
        assert!(plan.dropped_seqs.contains(&2), "driver kill never re-arms");
        assert!(!plan.dropped_seqs.contains(&3));
        // The kill-driver fire record survives compaction even though it
        // sits after the commit.
        assert!(plan
            .kept
            .iter()
            .any(|r| matches!(r, DriverRecord::TriggerFired { seq: 2, .. })));
        assert_eq!(plan.report.records_skipped, 1);
    }

    #[test]
    fn crash_spare_fires_become_halt_targets() {
        let script = "spare at=0.02\n";
        let dir = tmp("spare");
        let mut store = DriverStore::create(&dir, rec()).unwrap();
        store
            .append(&DriverRecord::JobAdmitted(admit(script)))
            .unwrap();
        store
            .append(&DriverRecord::TriggerFired { seq: 0, node: 4 })
            .unwrap();
        store
            .append(&DriverRecord::RoundOpened { round: 1 })
            .unwrap();
        write_slot(&mut store, 0, 1, 20);
        store
            .append(&DriverRecord::EpochCommit(commit(1, 0, 20)))
            .unwrap();
        let plan = ResumePlan::load(&dir).expect("plan");
        assert!(plan.dropped_seqs.contains(&0));
        assert_eq!(plan.halt_targets, vec![4]);
    }

    #[test]
    fn no_commit_resumes_from_scratch_with_layout_replay() {
        let dir = tmp("none");
        let mut store = DriverStore::create(&dir, rec()).unwrap();
        store
            .append(&DriverRecord::JobAdmitted(admit(
                "crash replica=0 rank=0 at=0.01\n",
            )))
            .unwrap();
        store
            .append(&DriverRecord::TriggerFired {
                seq: 0,
                node: NO_NODE,
            })
            .unwrap();
        store.append(&DriverRecord::NodeDead { node: 0 }).unwrap();
        store
            .append(&DriverRecord::SparePromoted {
                dead: 0,
                spare: 4,
                replica: 0,
                rank: 0,
            })
            .unwrap();
        let plan = ResumePlan::load(&dir).expect("plan");
        assert_eq!(plan.report.source, "none");
        assert_eq!(plan.report.epoch, 0);
        assert!(plan.commit.is_none());
        assert_eq!(plan.dead, vec![0]);
        assert_eq!(
            plan.promotions,
            vec![Promotion {
                dead: 0,
                spare: 4,
                replica: 0,
                rank: 0
            }]
        );
        assert!(
            plan.dropped_seqs.contains(&0),
            "with no commit, fired faults cannot be replayed faithfully; drop them"
        );
        assert_eq!(plan.report.records_replayed, 4);
    }

    #[test]
    fn torn_tail_is_skipped_and_counted() {
        let dir = tmp("torn");
        let mut store = DriverStore::create(&dir, rec()).unwrap();
        store.append(&DriverRecord::JobAdmitted(admit(""))).unwrap();
        store
            .append(&DriverRecord::RoundOpened { round: 1 })
            .unwrap();
        write_slot(&mut store, 0, 1, 20);
        store
            .append(&DriverRecord::EpochCommit(commit(1, 0, 20)))
            .unwrap();
        drop(store);
        // Torn append: half a record's worth of garbage at the tail.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(LOG_FILE))
            .unwrap();
        f.write_all(b"ACRE\x40\x00\x00\x00half-a-record").unwrap();
        drop(f);
        let plan = ResumePlan::load(&dir).expect("plan survives torn tail");
        assert_eq!(plan.report.source, "primary");
        assert!(plan.report.bytes_skipped > 0);
        assert!(plan
            .report
            .diagnostics
            .iter()
            .any(|d| d.contains("garbage bytes")));
    }
}
