//! The node worker: a message-driven scheduler thread hosting application
//! tasks plus the per-node half of the ACR protocol.

use std::sync::Arc;
use std::time::Duration;

use acr_core::{
    Checkpoint, CheckpointStore, ChunkTable, ConsensusAction, ConsensusEngine, ConsensusMsg,
    ConsensusObserver, Detection, DetectionMethod, HeartbeatMonitor, ReplicaLayout, SdcDetector,
};
use acr_fault::SdcInjector;
use acr_obs::{debug_trace, EventKind, ObsScope, Recorder};
use acr_pup::{
    apply_delta, chunk_span, diff_tables, record_pack, Checker, ChunkedDigest, DigestingPacker,
    Packer, PupResult, Puper, Sizer, Unpacker,
};
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::clock::Clock;
use crate::message::{AppMsg, Ctrl, Event, Net, NodeFault, NodeIndex, Scope, TaskId};
use crate::task::{Task, TaskCtx};
use crate::transport::Port;
use crate::wire::WelcomeCfg;

/// Every task's packed bytes start at a multiple of this (trailing zero
/// padding rounds each task segment up). The layout is part of the
/// checkpoint format: payloads, digests and chunk tables depend on it.
const SEGMENT_ALIGN: usize = 8;

/// The threaded loop's wait while a task may advance: the forward pace
/// (see `NodeWorker::next_wait`).
const FORWARD_PACE: Duration = Duration::from_millis(1);

/// The wait from job-clock `now` until `at`, rounded up to the microsecond
/// and never zero: a deadline that is met exactly (a heartbeat expires only
/// strictly after its timeout) waits a microsecond more instead of spinning.
fn wait_until(at: f64, now: f64) -> Duration {
    Duration::from_micros(((at - now) * 1e6).ceil().max(1.0) as u64)
}

/// A welcome's nanosecond duration in seconds, exactly as the `Duration`
/// the job was configured with reads.
fn secs(ns: u64) -> f64 {
    Duration::from_nanos(ns).as_secs_f64()
}

/// Zero padding needed after `offset` to reach the next segment boundary.
fn padding_after(offset: usize) -> usize {
    (SEGMENT_ALIGN - offset % SEGMENT_ALIGN) % SEGMENT_ALIGN
}

/// Run `p` over every task in payload order, each task followed by the zero
/// padding that ends its segment. Sizing, packing, unpacking and the
/// field-level check all walk the payload through this one function.
fn pup_segments(tasks: &mut [Box<dyn Task>], p: &mut dyn Puper) -> PupResult {
    for task in tasks {
        task.pup(p)?;
        let mut pad = [0u8; SEGMENT_ALIGN];
        let n = padding_after(p.offset());
        p.pup_u8_slice(&mut pad[..n])?;
    }
    Ok(())
}

/// Pack every task into one exactly-sized payload, computing the per-chunk
/// Fletcher table in the same memory pass, on the calling thread — the one
/// that steps the tasks.
fn pack_tasks(tasks: &mut [Box<dyn Task>], chunk_size: usize) -> (Vec<u8>, ChunkedDigest) {
    let mut sizer = Sizer::new();
    pup_segments(tasks, &mut sizer).expect("sizing task state cannot fail");
    let mut p = DigestingPacker::with_capacity(sizer.bytes(), chunk_size);
    pup_segments(tasks, &mut p).expect("packing task state cannot fail");
    let (buf, digest) = p.finish();
    debug_assert_eq!(buf.len(), sizer.bytes(), "the sizer measured the payload");
    (buf, digest)
}

/// Shared constructor for application tasks: `(rank, task_index)` → task.
/// Both replicas call it with the same arguments, so the two copies start
/// bit-identical.
pub(crate) type TaskFactory = dyn Fn(usize, usize) -> Box<dyn Task> + Send + Sync;

pub(crate) struct NodeWorker {
    index: NodeIndex,
    /// The job's shape and settings, as the welcome carries them.
    cfg: WelcomeCfg,
    identity: Option<(u8, usize)>,
    tasks: Vec<Box<dyn Task>>,
    engine_global: Option<ConsensusEngine>,
    engine_replica: Option<ConsensusEngine>,
    store: CheckpointStore,
    detector: SdcDetector,
    monitor: HeartbeatMonitor,
    buddy: Option<NodeIndex>,
    /// This node's own copy of the job's layout, updated by
    /// `Ctrl::LayoutChanged` as the driver promotes spares.
    layout: ReplicaLayout,
    port: Arc<dyn Port>,
    inbox: Receiver<Net>,
    factory: Arc<TaskFactory>,
    clock: Clock,
    rec: Arc<Recorder>,
    crashed: bool,
    parked: bool,
    done_reported: bool,
    last_heartbeat: f64,
    /// Outgoing heartbeats are suppressed until this job-clock time
    /// (`Ctrl::MuteHeartbeats` — a slow-but-alive node).
    hb_muted_until: f64,
    /// Scripted faults armed against node-local progress
    /// (`Ctrl::ScheduleFault`).
    scheduled_faults: Vec<(u64, NodeFault)>,
    /// Round floor for freshly built engines.
    floor: u64,
    /// Iteration of the in-flight checkpoint, per scope, so stale compare
    /// traffic can be recognized.
    pending_remote: Option<(u64, Detection)>,
    /// `(round, iteration)` of a tentative global checkpoint whose verdict
    /// is pending.
    awaiting_verdict: Option<(u64, u64)>,
    outbox: Vec<(TaskId, AppMsg)>,
    /// Non-app messages set aside while draining the inbox at checkpoint
    /// time; processed before new receives, preserving order.
    backlog: std::collections::VecDeque<Net>,
    /// Rollback epoch: application messages stamped with an older epoch are
    /// from an execution that has been rolled back and are dropped.
    epoch: u64,
    /// Application messages from peers that already entered a newer epoch;
    /// delivered once this node's own reset arrives.
    future_msgs: Vec<(u64, usize, AppMsg)>,
}

impl NodeWorker {
    /// Node `index` of the job `cfg` describes, holding its own copy of the
    /// job's initial layout: an active node builds its rank's tasks and
    /// watches its buddy, a spare waits for `AssumeIdentity`. A node host's
    /// welcome comes off the wire, so an index or a shape the layout
    /// refuses is an error, not a panic.
    pub(crate) fn new(
        index: NodeIndex,
        cfg: WelcomeCfg,
        port: Arc<dyn Port>,
        inbox: Receiver<Net>,
        factory: Arc<TaskFactory>,
        clock: Clock,
        rec: Arc<Recorder>,
    ) -> Result<Self, String> {
        let total = cfg.total as usize;
        if index >= total {
            return Err(format!(
                "node index {index} out of range (job total {total})"
            ));
        }
        let layout = ReplicaLayout::new(total, cfg.spares as usize)
            .map_err(|e| format!("node {index}: layout: {e:?}"))?;
        let identity = layout.locate(index);
        let buddy = layout.buddy(index).ok();
        let mut w = Self {
            index,
            cfg,
            identity,
            tasks: Vec::new(),
            engine_global: None,
            engine_replica: None,
            store: CheckpointStore::new(),
            detector: SdcDetector::new(cfg.detection),
            monitor: HeartbeatMonitor::new(secs(cfg.heartbeat_timeout_ns)),
            buddy,
            layout,
            port,
            inbox,
            factory,
            clock,
            rec,
            crashed: false,
            parked: false,
            done_reported: false,
            last_heartbeat: 0.0,
            hb_muted_until: 0.0,
            scheduled_faults: Vec::new(),
            floor: 0,
            pending_remote: None,
            awaiting_verdict: None,
            outbox: Vec::new(),
            backlog: std::collections::VecDeque::new(),
            epoch: 0,
            future_msgs: Vec::new(),
        };
        if let (Some((_, rank)), Some(buddy)) = (identity, buddy) {
            w.fresh_tasks(rank);
            w.rebuild_engines(0);
            w.monitor.watch(buddy, 0.0);
        }
        Ok(w)
    }

    fn now(&self) -> f64 {
        self.clock.now()
    }

    /// This node's id in the flight recorder's numbering.
    fn obs_node(&self) -> u32 {
        self.index as u32
    }

    fn send(&self, node: NodeIndex, msg: Net) {
        // Delivery is best-effort either way, but never *silently* so:
        // the in-process port counts sends into a closed inbox, and the
        // TCP port's broken-socket case feeds the reactor's stale-link
        // scan and thence the driver's liveness probe.
        self.port.send(node, msg);
    }

    fn rebuild_engines(&mut self, floor: u64) {
        self.floor = floor;
        let Some((replica, rank)) = self.identity else {
            self.engine_global = None;
            self.engine_replica = None;
            return;
        };
        let ranks = self.cfg.ranks as usize;
        let mut global =
            ConsensusEngine::new(replica as usize * ranks + rank, 2 * ranks, self.tasks.len())
                .with_observer(ConsensusObserver {
                    recorder: Arc::clone(&self.rec),
                    node: self.obs_node(),
                    scope: ObsScope::Global,
                });
        let mut local =
            ConsensusEngine::new(rank, ranks, self.tasks.len()).with_observer(ConsensusObserver {
                recorder: Arc::clone(&self.rec),
                node: self.obs_node(),
                scope: ObsScope::Replica(replica),
            });
        for (t, task) in self.tasks.iter().enumerate() {
            let _ = global.report_progress(t, task.progress());
            let _ = local.report_progress(t, task.progress());
        }
        global.set_round_floor(floor);
        local.set_round_floor(floor);
        self.engine_global = Some(global);
        self.engine_replica = Some(local);
    }

    /// Physical node currently hosting a consensus participant.
    fn participant_node(&self, scope: Scope, participant: usize) -> NodeIndex {
        match scope {
            Scope::Global => {
                let ranks = self.cfg.ranks as usize;
                self.layout
                    .host((participant / ranks) as u8, participant % ranks)
            }
            Scope::Replica(r) => self.layout.host(r, participant),
        }
    }

    fn dispatch_consensus(&mut self, scope: Scope, actions: Vec<ConsensusAction>) {
        for action in actions {
            match action {
                ConsensusAction::Send { to, msg } => {
                    let node = self.participant_node(scope, to);
                    self.send(node, Net::Consensus { scope, msg });
                }
                ConsensusAction::Checkpoint { round, iteration } => {
                    self.take_checkpoint(scope, round, iteration);
                }
            }
        }
    }

    fn engine_feed(&mut self, scope: Scope, msg: ConsensusMsg) {
        let engine = match scope {
            Scope::Global => self.engine_global.as_mut(),
            Scope::Replica(_) => self.engine_replica.as_mut(),
        };
        let Some(engine) = engine else { return };
        let actions = engine.on_message(msg);
        debug_trace!(
            self.rec,
            self.obs_node(),
            "[node {} {:?}] consensus {scope:?} {msg:?} -> {} actions",
            self.index,
            self.identity,
            actions.len()
        );
        self.dispatch_consensus(scope, actions);
    }

    fn unpack_tasks(&mut self, payload: &[u8]) {
        let mut u = Unpacker::new(payload);
        pup_segments(&mut self.tasks, &mut u).expect("checkpoint payload matches task set");
        u.finish().expect("checkpoint fully consumed");
        self.done_reported = false;
    }

    /// Deliver every application message already enqueued in the inbox and
    /// set the rest aside.
    ///
    /// Called immediately before packing a coordinated checkpoint. Any
    /// message a task sent during an iteration at or below the checkpoint
    /// target was enqueued in the receiver's channel *causally before* that
    /// task reported ready — and the `Go` that triggers this pack is
    /// causally after every ReadyUp — so this drain captures the complete
    /// consistent cut: no in-flight application message can escape the
    /// checkpoint (the §2.2 "message c will not be stored anywhere" hazard).
    fn drain_app_messages(&mut self) {
        let mut kept = std::collections::VecDeque::new();
        while let Ok(m) = self.inbox.try_recv() {
            match m {
                Net::App {
                    to_task,
                    epoch,
                    msg,
                } => self.receive_app(to_task, epoch, msg),
                other => kept.push_back(other),
            }
        }
        self.backlog.append(&mut kept);
    }

    fn take_checkpoint(&mut self, scope: Scope, round: u64, iteration: u64) {
        self.drain_app_messages();
        let pack_started = std::time::Instant::now();
        let (payload, chunked) = pack_tasks(&mut self.tasks, self.cfg.chunk_size as usize);
        let payload = Bytes::from(payload);
        // Deterministic pack facts go into the event log; the wall-clock
        // latency goes only into the histogram (it would break virtual-mode
        // log determinism).
        record_pack(
            &self.rec,
            self.obs_node(),
            &chunked,
            payload.len(),
            pack_started.elapsed().as_secs_f64(),
        );
        debug_trace!(self.rec, self.obs_node(),
            "[node {} {:?}] ckpt scope={scope:?} round={round} iter={iteration} digest={:x} chunks={} progress={:?}",
            self.index, self.identity, chunked.digest, chunked.chunk_digests.len(),
            self.tasks.iter().map(|t| t.progress()).collect::<Vec<_>>());
        let table = ChunkTable {
            chunk_size: chunked.chunk_size as u32,
            digests: chunked.chunk_digests.clone(),
        };
        self.store.store_tentative(Checkpoint::with_chunks(
            iteration,
            payload.clone(),
            chunked.digest,
            table.clone(),
        ));
        match scope {
            Scope::Global => {
                let (replica, _) = self.identity.expect("checkpointing node has identity");
                let buddy = self.buddy.expect("active node has a buddy");
                if replica == 0 {
                    // Ship content (or digest) for comparison (§2.1: "the
                    // remote checkpoint is sent to replica 2 only for SDC
                    // detection purposes"). With delta checkpoints on, this
                    // may thin to the dirty chunk windows only.
                    let detection = self.compare_ship(&payload, &chunked, &table);
                    self.detector
                        .record_ship(&detection, &self.rec, self.index as u32, iteration);
                    self.awaiting_verdict = Some((round, iteration));
                    self.send(
                        buddy,
                        Net::Compare {
                            iteration,
                            detection,
                        },
                    );
                } else {
                    self.awaiting_verdict = Some((round, iteration));
                    self.try_compare(round);
                }
            }
            Scope::Replica(_) => {
                // Recovery ship (medium/weak): promote unverified and send
                // to the buddy, which installs it wholesale.
                self.store.promote();
                let ckpt = self.store.rollback_target().expect("just promoted").clone();
                let buddy = self.buddy.expect("active node has a buddy");
                self.send(buddy, Net::Install { checkpoint: ckpt });
                self.port.send_event(Event::CheckpointDone {
                    node: self.index,
                    round,
                    iteration,
                    verified: None,
                });
            }
        }
    }

    /// Delta shipping applies only to FullCompare comparisons — the other
    /// methods never ship payload bytes, so there is nothing to thin.
    fn delta_enabled(&self) -> bool {
        self.cfg.delta_checkpoints && self.cfg.detection == DetectionMethod::FullCompare
    }

    /// What the replica-0 node ships for comparison this round: the
    /// detector's full message, or — when deltas are enabled — a record
    /// carrying only the chunk windows that changed since the rollback
    /// target, the last checkpoint both buddies verified (or installed).
    /// A rollback, install or promotion moves that base with it, so no
    /// separate state has to follow them. Every condition is structural —
    /// the same on every run of the same job, whatever the clock reads.
    fn compare_ship(
        &self,
        payload: &Bytes,
        chunked: &ChunkedDigest,
        table: &ChunkTable,
    ) -> Detection {
        let full = || {
            self.detector
                .outgoing(self.store.tentative().expect("just stored"))
        };
        if !self.delta_enabled() {
            return full();
        }
        let Some(base) = self.store.rollback_target() else {
            return full(); // nothing verified yet
        };
        let Some(base_table) = base.chunks.as_ref() else {
            return full();
        };
        if base.len() != payload.len() || base_table.chunk_size != table.chunk_size {
            return full(); // repacked size or geometry changed: base is incompatible
        }
        let Some(plan) = diff_tables(&base_table.digests, chunked, payload.len()) else {
            return full();
        };
        if plan.is_full() {
            return full(); // everything moved: the delta would be a copy
        }
        let dirty: Vec<(u32, Bytes)> = plan
            .dirty
            .iter()
            .map(|&index| {
                (
                    index,
                    payload.slice(chunk_span(plan.chunk_size, plan.payload_len, index)),
                )
            })
            .collect();
        let delta = Detection::Delta {
            base_iteration: base.iteration,
            payload_len: payload.len(),
            digest: chunked.digest,
            table: table.clone(),
            dirty,
        };
        // The record carries the full chunk table; for very dirty rounds
        // that overhead can exceed the payload itself.
        if delta.wire_bytes() >= payload.len() {
            return full();
        }
        delta
    }

    /// Replica-1 side: compare once both the local tentative checkpoint and
    /// the buddy's detection message are present.
    fn try_compare(&mut self, round: u64) {
        let Some(tentative_iter) = self.store.tentative().map(|t| t.iteration) else {
            return;
        };
        let Some((iteration, _)) = self.pending_remote else {
            return;
        };
        if iteration != tentative_iter {
            return; // stale traffic from an aborted round
        }
        let (_, detection) = self.pending_remote.take().expect("checked above");
        let tentative = self.store.tentative().expect("checked above");
        // Promotion is deferred to the driver's RoundComplete: a mismatch
        // *anywhere* invalidates the whole round, so locally-clean pairs
        // must not advance their rollback target ahead of the others.
        let divergence = self.detector.diverged_recorded(
            tentative,
            &detection,
            &self.rec,
            self.index as u32,
            iteration,
        );
        let clean = divergence.is_clean();
        let payload_len = tentative.len();
        debug_trace!(self.rec, self.obs_node(),
            "[node {} {:?}] compare iter={iteration} clean={clean} local_len={payload_len} local_digest={:x} diverged={:?}",
            self.index, self.identity, tentative.digest, divergence.ranges);
        // On a FullCompare mismatch, re-check at field granularity — but
        // only inside the diverged chunks the table localized, not the whole
        // payload. Live tasks are frozen at the checkpoint state here (packs
        // happen under the consensus pause), so traversing them against the
        // remote payload is exact.
        let mut fields_flagged = 0;
        if !clean {
            if let Some(remote) = self.reference_payload(&detection) {
                if remote.len() == payload_len {
                    fields_flagged = self.check_diverged_fields(&remote, &divergence.ranges);
                }
            }
        }
        let buddy = self.buddy.expect("active node has a buddy");
        self.send(buddy, Net::CompareResult { iteration, clean });
        self.awaiting_verdict = None;
        if !clean {
            self.port.send_event(Event::SdcDetected {
                node: self.index,
                iteration,
                diverged: divergence.ranges,
                payload_len,
                fields_flagged,
            });
        }
        self.port.send_event(Event::CheckpointDone {
            node: self.index,
            round,
            iteration,
            verified: Some(clean),
        });
    }

    /// The buddy's payload for the field-level re-check after a mismatch:
    /// the shipped bytes, or — for a delta record whose base is this node's
    /// own rollback target — that target with the dirty windows laid over
    /// it. `None` (no reference) leaves the re-check out.
    fn reference_payload(&self, detection: &Detection) -> Option<Bytes> {
        match detection {
            Detection::Payload(remote) => Some(remote.clone()),
            Detection::Delta {
                base_iteration,
                payload_len,
                table,
                dirty,
                ..
            } => {
                let base = self
                    .store
                    .rollback_target()
                    .filter(|base| base.iteration == *base_iteration)?;
                let windows: Vec<(u32, &[u8])> =
                    dirty.iter().map(|(i, w)| (*i, w.as_ref())).collect();
                apply_delta(
                    &base.payload,
                    table.chunk_size as usize,
                    *payload_len,
                    &windows,
                )
                .map(Bytes::from)
            }
            _ => None,
        }
    }

    /// Field-level comparison of live tasks against the buddy payload,
    /// restricted to the given diverged byte windows. Returns the number of
    /// mismatching fields found (0 if the traversal itself fails — the
    /// verdict already stands, this only refines diagnostics).
    fn check_diverged_fields(
        &mut self,
        reference: &[u8],
        windows: &[std::ops::Range<usize>],
    ) -> usize {
        let mut c = Checker::new(reference).with_windows(windows.iter().cloned());
        if pup_segments(&mut self.tasks, &mut c).is_err() {
            return 0;
        }
        c.finish().map_or(0, |report| report.mismatch_count)
    }

    fn handle_ctrl(&mut self, ctrl: Ctrl) -> bool {
        match ctrl {
            Ctrl::StartRound { scope, round } => {
                debug_trace!(
                    self.rec,
                    self.obs_node(),
                    "[node {} {:?}] StartRound {scope:?} round={round} progress={:?}",
                    self.index,
                    self.identity,
                    self.tasks.iter().map(|t| t.progress()).collect::<Vec<_>>()
                );
                self.engine_feed(scope, ConsensusMsg::Start { round });
            }
            Ctrl::AbortRound { floor } => {
                self.awaiting_verdict = None;
                self.pending_remote = None;
                self.rebuild_engines(floor);
            }
            Ctrl::Rollback { floor } => self.restore(floor),
            Ctrl::SendVerifiedTo { to } => {
                let ckpt = self
                    .store
                    .rollback_target()
                    .expect("driver only requests existing checkpoints")
                    .clone();
                self.send(to, Net::Install { checkpoint: ckpt });
            }
            Ctrl::AssumeIdentity {
                replica,
                rank,
                buddy,
                floor,
            } => {
                self.identity = Some((replica, rank));
                self.fresh_tasks(rank);
                self.buddy = Some(buddy);
                let now = self.now();
                self.monitor.watch(buddy, now);
                self.store = CheckpointStore::new();
                self.rebuild_engines(floor);
                self.enter_epoch(floor);
                self.parked = true; // driver resumes explicitly
            }
            Ctrl::BuddyChanged { buddy } => {
                if let Some(old) = self.buddy {
                    self.monitor.unwatch(old);
                }
                self.buddy = Some(buddy);
                let now = self.now();
                self.monitor.watch(buddy, now);
            }
            Ctrl::RoundComplete => {
                // The driver saw a clean verdict from every buddy pair: the
                // tentative checkpoint becomes the verified rollback target
                // on every node simultaneously (a consistent global cut).
                self.store.promote();
                if let Some(e) = self.engine_global.as_mut() {
                    e.checkpoint_done();
                }
                if let Some(e) = self.engine_replica.as_mut() {
                    e.checkpoint_done();
                }
            }
            Ctrl::Park => {
                self.parked = true;
            }
            Ctrl::Resume { floor } => {
                self.enter_epoch(floor);
                self.parked = false;
                self.rebuild_engines(floor);
            }
            Ctrl::HardRestart { floor } => {
                // No checkpoint line survives: forget every checkpoint and
                // start the application over (§2.3's restart from the
                // beginning, the driver's epoch 0).
                self.store = CheckpointStore::new();
                self.parked = false;
                self.restore(floor);
            }
            Ctrl::InjectCrash => {
                self.apply_fault(NodeFault::Crash);
            }
            Ctrl::InjectSdc { seed, bits } => {
                self.apply_fault(NodeFault::Sdc { seed, bits });
            }
            Ctrl::ScheduleFault {
                at_iteration,
                fault,
            } => {
                self.scheduled_faults.push((at_iteration, fault));
            }
            Ctrl::MuteHeartbeats { secs } => {
                self.hb_muted_until = self.now() + secs;
            }
            Ctrl::Ping { token } => {
                self.port.send_event(Event::Pong {
                    node: self.index,
                    token,
                });
            }
            Ctrl::Shutdown => {
                self.report_final_state();
                return true;
            }
            Ctrl::ReportVerified { round } => {
                // The driver released the round before asking: the
                // RoundComplete ahead of this in the inbox has promoted the
                // round's checkpoint, and the rollback target is immutable
                // shared bytes, so whatever the tasks have computed since
                // cannot reach the answer. The tentative checkpoint covers
                // a node whose promotion has not happened; the driver
                // checks the iteration either way and commits no mixed line.
                let ckpt = self
                    .store
                    .rollback_target()
                    .or_else(|| self.store.tentative());
                if let Some(t) = ckpt {
                    self.port.send_event(Event::VerifiedState {
                        node: self.index,
                        round,
                        iteration: t.iteration,
                        digest: t.digest,
                        payload: t.payload.clone(),
                    });
                }
            }
            Ctrl::Halt => {
                // Replayed death from a resumed journal: same terminal
                // behavior as an injected crash, but silent — no
                // FaultInjected event, so restored counters stay exact.
                self.crashed = true;
            }
            Ctrl::LayoutChanged { dead } => {
                let _ = self.layout.replace_with_spare(dead);
            }
        }
        false
    }

    /// Restore the tasks to the verified checkpoint — or, with none, to the
    /// application's initial state — and rejoin at round floor `floor`.
    /// The tentative checkpoint and any pending verdict go with the state
    /// they described. Answers `RolledBack`.
    fn restore(&mut self, floor: u64) {
        self.store.discard_tentative();
        self.pending_remote = None;
        self.awaiting_verdict = None;
        if let Some(ckpt) = self.store.rollback_target() {
            let payload = ckpt.payload.clone();
            self.unpack_tasks(&payload);
        } else if let Some((_, rank)) = self.identity {
            self.fresh_tasks(rank);
        }
        self.done_reported = false;
        self.rebuild_engines(floor);
        // Epoch bump comes *after* the state restore: entering the epoch
        // releases stashed messages from peers that restored first, and
        // those must land in the restored tasks, not in state about to be
        // overwritten.
        self.enter_epoch(floor);
        debug_trace!(
            self.rec,
            self.obs_node(),
            "[node {} {:?}] restored to progress={:?} (floor {floor}, epoch {})",
            self.index,
            self.identity,
            self.tasks.iter().map(|t| t.progress()).collect::<Vec<_>>(),
            self.epoch
        );
        self.port.send_event(Event::RolledBack { node: self.index });
    }

    /// Rank `rank`'s tasks as the factory builds them: the application's
    /// initial state.
    fn fresh_tasks(&mut self, rank: usize) {
        self.tasks = (0..self.cfg.tasks_per_rank as usize)
            .map(|t| (self.factory)(rank, t))
            .collect();
    }

    /// Send the shutdown `FinalState` event (empty for a crashed node).
    fn report_final_state(&mut self) {
        let tasks: Vec<Bytes> = if self.crashed {
            Vec::new()
        } else {
            let ids: Vec<usize> = (0..self.tasks.len()).collect();
            ids.iter()
                .map(|&t| {
                    let mut p = Packer::new();
                    self.tasks[t].pup(&mut p).expect("final pack");
                    Bytes::from(p.finish())
                })
                .collect()
        };
        self.port.send_event(Event::FinalState {
            node: self.index,
            identity: self.identity,
            tasks,
        });
    }

    /// Apply an injected fault to this node, reporting the exact job-clock
    /// time it landed.
    fn apply_fault(&mut self, fault: NodeFault) {
        let iteration = self.tasks.iter().map(|t| t.progress()).max().unwrap_or(0);
        match fault {
            NodeFault::Crash => {
                self.rec
                    .emit_with(self.obs_node(), || EventKind::FaultInjected {
                        kind: "crash".to_string(),
                        iteration,
                    });
                self.port.send_event(Event::FaultInjected {
                    node: self.index,
                    at: self.now(),
                    fault,
                });
                self.crashed = true;
            }
            NodeFault::Sdc { seed, bits } => {
                if self.inject_sdc(seed, bits) {
                    self.rec
                        .emit_with(self.obs_node(), || EventKind::FaultInjected {
                            kind: "sdc".to_string(),
                            iteration,
                        });
                    self.port.send_event(Event::FaultInjected {
                        node: self.index,
                        at: self.now(),
                        fault,
                    });
                }
            }
        }
    }

    /// Fire scripted faults whose iteration trigger the application's
    /// node-local progress has reached.
    fn poll_scheduled_faults(&mut self) {
        if self.scheduled_faults.is_empty() || self.tasks.is_empty() {
            return;
        }
        let progress = self
            .tasks
            .iter()
            .map(|t| t.progress())
            .max()
            .expect("non-empty");
        let mut due = Vec::new();
        self.scheduled_faults.retain(|&(at, fault)| {
            if progress >= at {
                due.push(fault);
                false
            } else {
                true
            }
        });
        for fault in due {
            self.apply_fault(fault);
            if self.crashed {
                return;
            }
        }
    }

    /// §6.1 SDC injection: flip `bits` random bits of the victim task's
    /// floating-point *user data* (the paper targets "the user data that
    /// will be checkpointed"; corrupting runtime counters would crash or
    /// hang instead of staying silent). Float payloads accept every bit
    /// pattern, so the corrupted state always unpacks cleanly.
    ///
    /// The victim task is drawn first, then the [`SdcInjector`] continues
    /// the same seeded stream for the (float-byte, bit) draws — for
    /// `bits == 1` this reproduces the historical single-flip stream bit
    /// for bit, so existing test seeds keep their meaning.
    ///
    /// Returns whether at least one bit actually flipped.
    fn inject_sdc(&mut self, seed: u64, bits: u32) -> bool {
        if self.tasks.is_empty() {
            return false;
        }
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let victim = rng.gen_range(0..self.tasks.len());
        let mut mapper = acr_pup::RegionMapper::new();
        self.tasks[victim]
            .pup(&mut mapper)
            .expect("region mapping cannot fail");
        let mut packer = Packer::new();
        self.tasks[victim]
            .pup(&mut packer)
            .expect("pack for injection");
        let mut payload = packer.finish();
        if mapper.float_bytes() == 0 {
            return false; // nothing silent to corrupt
        }
        let mut injector = SdcInjector::from_rng(rng);
        for _ in 0..bits.max(1) {
            injector.corrupt_indexed(&mut payload, mapper.float_bytes(), |n| {
                mapper.nth_float_byte(n)
            });
        }
        if injector.log().is_empty() {
            return false;
        }
        let mut u = Unpacker::new(&payload);
        self.tasks[victim]
            .pup(&mut u)
            .expect("float flip keeps structure");
        u.finish().expect("float flip keeps structure");
        true
    }

    /// Enter a new rollback epoch: in-flight messages from older epochs are
    /// invalid from now on; messages from peers that got there first are
    /// released.
    fn enter_epoch(&mut self, epoch: u64) {
        if epoch <= self.epoch {
            return;
        }
        self.epoch = epoch;
        let ready: Vec<(usize, AppMsg)> = {
            let (now, later): (Vec<_>, Vec<_>) = self
                .future_msgs
                .drain(..)
                .partition(|&(e, _, _)| e <= epoch);
            self.future_msgs = later;
            now.into_iter()
                .filter(|&(e, _, _)| e == epoch)
                .map(|(_, t, m)| (t, m))
                .collect()
        };
        for (to_task, msg) in ready {
            self.deliver_app(to_task, msg);
        }
    }

    fn receive_app(&mut self, to_task: usize, epoch: u64, msg: AppMsg) {
        use std::cmp::Ordering;
        match epoch.cmp(&self.epoch) {
            Ordering::Less => {} // rolled-back execution: drop
            Ordering::Equal => {
                if self.parked {
                    // Parked = quiesced for recovery: current-epoch traffic
                    // is pre-crash residue, and the state about to replace
                    // ours (rollback or buddy install) carries its own
                    // complete message cut. Drop it.
                } else {
                    self.deliver_app(to_task, msg);
                }
            }
            Ordering::Greater => self.future_msgs.push((epoch, to_task, msg)),
        }
    }

    fn deliver_app(&mut self, to_task: usize, msg: AppMsg) {
        let Some((_, rank)) = self.identity else {
            return;
        };
        if to_task >= self.tasks.len() {
            return;
        }
        let mut outbox = std::mem::take(&mut self.outbox);
        {
            let mut ctx = TaskCtx::new(
                TaskId {
                    rank,
                    task: to_task,
                },
                self.cfg.ranks as usize,
                &mut outbox,
            );
            self.tasks[to_task].on_message(msg, &mut ctx);
        }
        self.outbox = outbox;
        self.flush_outbox();
    }

    fn flush_outbox(&mut self) {
        let Some((replica, _)) = self.identity else {
            self.outbox.clear();
            return;
        };
        let sends = std::mem::take(&mut self.outbox);
        for (to, msg) in sends {
            let node = self.layout.host(replica, to.rank);
            self.send(
                node,
                Net::App {
                    to_task: to.task,
                    epoch: self.epoch,
                    msg,
                },
            );
        }
    }

    /// Whether task `t` is unfinished and both consensus engines let it
    /// advance.
    fn may_step(&self, t: usize) -> bool {
        !self.tasks[t].done()
            && self.engine_global.as_ref().is_none_or(|e| e.may_advance(t))
            && (self.engine_replica.as_ref()).is_none_or(|e| e.may_advance(t))
    }

    /// Whether the next pass may step a task: the node is not parked and
    /// some task may advance (a spare hosts none).
    fn runnable(&self) -> bool {
        !self.parked && (0..self.tasks.len()).any(|t| self.may_step(t))
    }

    fn step_tasks(&mut self) {
        let Some((_, rank)) = self.identity else {
            return;
        };
        if self.parked {
            return;
        }
        for t in 0..self.tasks.len() {
            if !self.may_step(t) {
                continue;
            }
            let mut outbox = std::mem::take(&mut self.outbox);
            let advanced = {
                let mut ctx = TaskCtx::new(
                    TaskId { rank, task: t },
                    self.cfg.ranks as usize,
                    &mut outbox,
                );
                self.tasks[t].try_step(&mut ctx)
            };
            self.outbox = outbox;
            self.flush_outbox();
            if advanced {
                let progress = self.tasks[t].progress();
                if let Some(e) = self.engine_global.as_mut() {
                    let actions = e.report_progress(t, progress);
                    self.dispatch_consensus(Scope::Global, actions);
                }
                if let Some((replica, _)) = self.identity {
                    if let Some(e) = self.engine_replica.as_mut() {
                        let actions = e.report_progress(t, progress);
                        self.dispatch_consensus(Scope::Replica(replica), actions);
                    }
                }
            }
        }
        if !self.done_reported && !self.tasks.is_empty() && self.tasks.iter().all(|t| t.done()) {
            self.done_reported = true;
            self.port
                .send_event(Event::AllTasksDone { node: self.index });
        }
    }

    fn heartbeat_tick(&mut self) {
        let now = self.now();
        if now - self.last_heartbeat >= secs(self.cfg.heartbeat_period_ns)
            && now >= self.hb_muted_until
        {
            self.last_heartbeat = now;
            if let Some(buddy) = self.buddy {
                self.send(buddy, Net::Heartbeat { from: self.index });
            }
        }
        for dead in self.monitor.expired(now) {
            self.rec
                .emit_with(self.obs_node(), || EventKind::HeartbeatExpired {
                    dead: dead as u32,
                });
            self.rec.inc_counter("acr_heartbeat_expired_total", 1);
            self.port.send_event(Event::BuddyDead {
                reporter: self.index,
                dead,
            });
        }
    }

    /// Handle one delivered message. Returns `true` when the node should
    /// exit its scheduler loop (shutdown).
    fn handle_net(&mut self, msg: Net) -> bool {
        match msg {
            Net::App {
                to_task,
                epoch,
                msg,
            } => self.receive_app(to_task, epoch, msg),
            Net::Consensus { scope, msg } => self.engine_feed(scope, msg),
            Net::Compare {
                iteration,
                detection,
            } => {
                let now = self.now();
                if let Some(b) = self.buddy {
                    self.monitor.heard_from(b, now);
                }
                self.pending_remote = Some((iteration, detection));
                if let Some((round, _)) = self.awaiting_verdict {
                    self.try_compare(round);
                }
            }
            Net::CompareResult { iteration, clean } => {
                if let Some((round, it)) = self.awaiting_verdict {
                    if it == iteration {
                        self.awaiting_verdict = None;
                        self.port.send_event(Event::CheckpointDone {
                            node: self.index,
                            round,
                            iteration,
                            verified: Some(clean),
                        });
                    }
                }
            }
            Net::Install { checkpoint } => {
                let payload = checkpoint.payload.clone();
                self.store.install_verified(checkpoint);
                self.unpack_tasks(&payload);
                self.rebuild_engines(self.floor);
                self.port.send_event(Event::Installed { node: self.index });
            }
            Net::Heartbeat { from } => {
                let now = self.now();
                self.monitor.heard_from(from, now);
            }
            Net::Ctrl(ctrl) => return self.handle_ctrl(ctrl),
        }
        false
    }

    /// The per-iteration housekeeping every scheduler pass runs after
    /// message delivery: scripted faults, heartbeats, task stepping.
    fn tick(&mut self) {
        if self.crashed {
            return;
        }
        self.poll_scheduled_faults();
        if self.crashed {
            return;
        }
        self.heartbeat_tick();
        self.step_tasks();
    }

    /// How long the threaded loop may wait for its next message, judged
    /// from the state the last pass left; `None` waits until one comes.
    ///
    /// - A crashed node waits for nothing but `Shutdown` (§6.1).
    /// - A node with a task that may advance keeps the forward pace: a
    ///   task can be runnable yet wait on a peer's message, and the pass
    ///   after the pace retries it.
    /// - Every other node — a spare, a node paused in a round, a parked or
    ///   a done one — has nothing to do before a message or its earliest
    ///   deadline: the next heartbeat to its buddy (never before a mute
    ///   ends) or the buddy's expiry.
    fn next_wait(&self) -> Option<Duration> {
        if self.crashed {
            return None;
        }
        if self.runnable() {
            return Some(FORWARD_PACE);
        }
        let period = secs(self.cfg.heartbeat_period_ns);
        let heartbeat =
            (self.buddy).map(|_| (self.last_heartbeat + period).max(self.hb_muted_until));
        let at = (heartbeat.into_iter())
            .chain(self.monitor.next_expiry())
            .reduce(f64::min)?;
        Some(wait_until(at, self.now()))
    }

    /// Threaded scheduler loop: one pass on entry, then for each message
    /// (or deadline) one pass, waiting between them as [`next_wait`]
    /// says.
    ///
    /// [`next_wait`]: NodeWorker::next_wait
    pub(crate) fn run(mut self) {
        self.tick();
        loop {
            let msg = match self.backlog.pop_front() {
                Some(m) => Ok(m),
                None => match self.next_wait() {
                    Some(wait) => self.inbox.recv_timeout(wait),
                    None => (self.inbox.recv()).map_err(|_| RecvTimeoutError::Disconnected),
                },
            };
            if self.crashed {
                // §6.1 "no-response scheme": the process on that node stops
                // responding to any communication — it only leaves when the
                // job tears down.
                match msg {
                    Ok(Net::Ctrl(Ctrl::Shutdown)) => {
                        self.report_final_state();
                        return;
                    }
                    Ok(_) => continue,
                    Err(_) => return,
                }
            }
            match msg {
                Ok(m) => {
                    if self.handle_net(m) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            self.tick();
        }
    }

    /// One non-blocking scheduler pass, for the virtual-time executor: drain
    /// a bounded batch of pending messages, then tick once. The executor
    /// round-robins `pump` across all workers on one thread and advances the
    /// virtual clock between passes, which makes the whole job's event order
    /// deterministic.
    pub(crate) fn pump(&mut self) -> Pump {
        const BATCH: usize = 64;
        if self.crashed {
            loop {
                let msg = match self.backlog.pop_front() {
                    Some(m) => m,
                    None => match self.inbox.try_recv() {
                        Ok(m) => m,
                        Err(_) => return Pump::Idle,
                    },
                };
                if matches!(msg, Net::Ctrl(Ctrl::Shutdown)) {
                    self.report_final_state();
                    return Pump::Exited;
                }
            }
        }
        let mut processed = 0;
        while processed < BATCH && !self.crashed {
            let msg = match self.backlog.pop_front() {
                Some(m) => m,
                None => match self.inbox.try_recv() {
                    Ok(m) => m,
                    Err(_) => break,
                },
            };
            if self.handle_net(msg) {
                return Pump::Exited;
            }
            processed += 1;
        }
        self.tick();
        if processed > 0 {
            Pump::Busy
        } else {
            Pump::Idle
        }
    }
}

/// Outcome of one [`NodeWorker::pump`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pump {
    /// No messages were waiting.
    Idle,
    /// At least one message was processed.
    Busy,
    /// The node exited (shutdown).
    Exited,
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_pup::{chunk_digests, fletcher64, Pup, PupResult};

    /// A task with a deliberately unaligned packed size (the `tail` bytes),
    /// so segment padding is actually exercised.
    struct Blob {
        iter: u64,
        data: Vec<f64>,
        tail: Vec<u8>,
    }

    impl Task for Blob {
        fn try_step(&mut self, _ctx: &mut TaskCtx<'_>) -> bool {
            false
        }
        fn on_message(&mut self, _m: AppMsg, _c: &mut TaskCtx<'_>) {}
        fn progress(&self) -> u64 {
            self.iter
        }
        fn done(&self) -> bool {
            true
        }
        fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
            p.pup_u64(&mut self.iter)?;
            self.data.pup(p)?;
            self.tail.pup(p)
        }
    }

    fn blobs(n: usize) -> Vec<Box<dyn Task>> {
        (0..n)
            .map(|i| {
                Box::new(Blob {
                    iter: i as u64,
                    data: (0..40 + 13 * i)
                        .map(|k| (i * 1000 + k) as f64 * 0.5)
                        .collect(),
                    tail: (0..(i * 3) % 7).map(|k| k as u8).collect(),
                }) as Box<dyn Task>
            })
            .collect()
    }

    #[test]
    fn pack_is_the_padded_segment_layout_and_digest_exact() {
        const CHUNK: usize = 64;
        let (buf, digest) = pack_tasks(&mut blobs(5), CHUNK);

        // The checkpoint format, built independently: each task's plain
        // packed bytes, zero-padded to the next 8-byte boundary, in order.
        let mut layout = Vec::new();
        for task in blobs(5).iter_mut() {
            let mut p = Packer::new();
            task.pup(&mut p).expect("pack");
            layout.extend(p.finish());
            layout.resize(layout.len().div_ceil(SEGMENT_ALIGN) * SEGMENT_ALIGN, 0);
        }
        assert_eq!(buf, layout, "segment layout changed");
        assert_eq!(digest.digest, fletcher64(&buf));
        assert_eq!(digest, chunk_digests(&buf, CHUNK), "fused table is exact");
    }

    #[test]
    fn padded_payload_round_trips_through_unpack() {
        let (buf, _) = pack_tasks(&mut blobs(4), 64);

        // Fresh wiped tasks: only the bytes can restore the state.
        let mut restored: Vec<Box<dyn Task>> = (0..4)
            .map(|_| {
                Box::new(Blob {
                    iter: 999,
                    data: Vec::new(),
                    tail: Vec::new(),
                }) as Box<dyn Task>
            })
            .collect();
        let mut u = Unpacker::new(&buf);
        pup_segments(&mut restored, &mut u).expect("payload matches task set");
        u.finish().expect("payload fully consumed");

        let (again, _) = pack_tasks(&mut restored, 64);
        assert_eq!(again, buf, "restored tasks repack identically");
    }

    /// An `SdcDetected` report: iteration, diverged ranges, fields flagged.
    type SdcReport = (u64, Vec<std::ops::Range<usize>>, usize);

    /// Everything a pair of nodes sends, for the test to deliver by hand,
    /// and the SDC reports they raise.
    #[derive(Default)]
    struct Mailbox {
        sent: parking_lot::Mutex<Vec<(NodeIndex, Net)>>,
        sdc: parking_lot::Mutex<Vec<SdcReport>>,
        dead: parking_lot::Mutex<Vec<NodeIndex>>,
    }

    impl Port for Mailbox {
        fn send(&self, to: NodeIndex, msg: Net) {
            self.sent.lock().push((to, msg));
        }
        fn send_event(&self, ev: Event) {
            match ev {
                Event::SdcDetected {
                    iteration,
                    diverged,
                    fields_flagged,
                    ..
                } => self.sdc.lock().push((iteration, diverged, fields_flagged)),
                Event::BuddyDead { dead, .. } => self.dead.lock().push(dead),
                _ => {}
            }
        }
    }

    /// 4 KiB of state in 64-byte chunks; only the first chunk (which holds
    /// `iter`) changes from one iteration to the next. `flip` corrupts one
    /// data word, as a silent error on one replica would.
    fn blob_at(iter: u64, flip: Option<usize>) -> Box<dyn Task> {
        let mut data = vec![0.5; 512];
        if let Some(at) = flip {
            data[at] = -0.5;
        }
        Box::new(Blob {
            iter,
            data,
            tail: Vec::new(),
        })
    }

    /// A node with nothing to step sleeps until its next deadline: a spare
    /// until a message, a parked node on a silent buddy until the buddy
    /// expires — waking at most twice around the expiry, never in a spin —
    /// and then until its next heartbeat is due.
    #[test]
    fn a_parked_node_sleeps_until_its_next_deadline() {
        assert!(
            wait_until(1.5, 1.5) > Duration::ZERO,
            "a deadline met exactly"
        );
        assert_eq!(wait_until(1.0, 1.5), Duration::from_micros(1), "one passed");
        let cfg = WelcomeCfg {
            ranks: 1,
            tasks_per_rank: 1,
            spares: 1,
            total: 3,
            detection: DetectionMethod::FullCompare,
            chunk_size: 64,
            heartbeat_period_ns: 10_000_000_000,
            heartbeat_timeout_ns: 300_000_000,
            delta_checkpoints: false,
        };
        let mail = Arc::new(Mailbox::default());
        let clock = Clock::simulated();
        let [mut node, spare] = [0, 2].map(|index| {
            let port = Arc::clone(&mail) as Arc<dyn Port>;
            let (_, inbox) = crossbeam::channel::unbounded();
            let factory: Arc<TaskFactory> = Arc::new(|_, _| blob_at(0, None));
            let rec = Recorder::disabled();
            NodeWorker::new(index, cfg, port, inbox, factory, clock.clone(), rec)
                .expect("a node of the job")
        });
        assert_eq!(spare.next_wait(), None, "a spare waits for a message");
        node.handle_ctrl(Ctrl::Park);
        let mut wakes = 0;
        while mail.dead.lock().is_empty() {
            let wait = node.next_wait().expect("a buddy is watched");
            assert!(wait > Duration::ZERO, "no spin");
            clock.advance(wait.as_secs_f64());
            node.tick();
            wakes += 1;
            assert!(wakes <= 2, "woke {wakes} times for one expiry");
        }
        assert_eq!(*mail.dead.lock(), vec![1]);
        let next = node.next_wait().expect("the next heartbeat is due");
        assert!(
            next > Duration::from_secs(9),
            "then the heartbeat: {next:?}"
        );
    }

    /// The buddy judges a delta record by its own checkpoint alone: losing
    /// its store mid-chain costs nothing, a rollback keeps the chain going
    /// against the rollback target, and a silent error is caught in a chunk
    /// the sender left clean (by its digest) and inside a dirty window (by
    /// its bytes), each re-checked down to the field.
    #[test]
    fn deltas_need_no_base_on_the_buddy() {
        // Node 0 (replica 0) and its buddy node 1 (replica 1), one rank.
        let cfg = WelcomeCfg {
            ranks: 1,
            tasks_per_rank: 1,
            spares: 0,
            total: 2,
            detection: DetectionMethod::FullCompare,
            chunk_size: 64,
            heartbeat_period_ns: 10_000_000,
            heartbeat_timeout_ns: 1_000_000_000,
            delta_checkpoints: true,
        };
        let mail = Arc::new(Mailbox::default());
        let mut pair = [0, 1].map(|index| {
            let port = Arc::clone(&mail) as Arc<dyn Port>;
            let (_, inbox) = crossbeam::channel::unbounded();
            let factory: Arc<TaskFactory> = Arc::new(|_, _| blob_at(0, None));
            let (clock, rec) = (Clock::simulated(), Recorder::disabled());
            NodeWorker::new(index, cfg, port, inbox, factory, clock, rec)
                .expect("a node of the job")
        });
        // One global round per iteration: both nodes checkpoint (the buddy
        // with `flip` planted), the compare and then its verdict are
        // delivered, and the round completes — or, on an SDC, both roll
        // back to their last verified checkpoint.
        let mut log = String::new();
        for (iteration, flip) in [
            (1, None),
            (2, None),
            (3, None),
            (4, Some(300)), // a chunk the sender left clean
            (5, None),
            (6, Some(0)), // inside chunk 0, the sender's dirty window
        ] {
            if iteration == 3 {
                pair[1].store = CheckpointStore::new(); // lost between rounds 2 and 3
            }
            for (w, flip) in pair.iter_mut().zip([None, flip]) {
                w.tasks = vec![blob_at(iteration, flip)];
                w.take_checkpoint(Scope::Global, iteration, iteration);
            }
            let mut clean = true;
            for _ in 0..2 {
                let sent = std::mem::take(&mut *mail.sent.lock());
                for (to, msg) in sent {
                    match &msg {
                        Net::Compare {
                            detection: Detection::Delta { base_iteration, .. },
                            ..
                        } => log += &format!("delta@{base_iteration} "),
                        Net::Compare { .. } => log += "full ",
                        Net::CompareResult { clean: c, .. } => {
                            clean = *c;
                            log += if *c { "clean; " } else { "SDC; " };
                        }
                        _ => {}
                    }
                    pair[to].handle_net(msg);
                }
            }
            for w in pair.iter_mut() {
                w.handle_ctrl(if clean {
                    Ctrl::RoundComplete
                } else {
                    Ctrl::Rollback { floor: iteration }
                });
            }
        }
        assert_eq!(
            log,
            "full clean; delta@1 clean; delta@2 clean; delta@3 SDC; \
             delta@3 clean; delta@5 SDC; "
        );
        let sdc = mail.sdc.lock().clone();
        assert_eq!(sdc.len(), 2, "{sdc:?}");
        let (iteration, diverged, fields) = &sdc[0];
        assert_eq!(*iteration, 4);
        assert!(
            diverged.len() == 1 && diverged[0].len() == 64 && diverged[0].start > 0,
            "one clean chunk diverged: {diverged:?}"
        );
        assert!(*fields >= 1, "the clean-chunk flip is re-checked by field");
        let (iteration, diverged, fields) = &sdc[1];
        assert_eq!(
            (*iteration, diverged.len(), diverged[0].clone()),
            (6, 1, 0..64)
        );
        assert!(*fields >= 1, "the dirty-window flip is re-checked by field");
    }
}
