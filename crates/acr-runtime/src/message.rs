//! Wire types: application messages, protocol messages, and driver control.

use acr_core::{Checkpoint, ConsensusMsg, Detection};
use bytes::Bytes;

/// Job-wide node index (the [`acr_core::ReplicaLayout`] numbering: actives,
/// then spares).
pub type NodeIndex = usize;

/// Address of an application task *within its own replica*: replication is
/// transparent to application code (§4.1 — "the application running in each
/// replica is unaware of the division").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId {
    /// Rank (logical node) within the replica.
    pub rank: usize,
    /// Task index on that rank.
    pub task: usize,
}

/// An application-level message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppMsg {
    /// Sending task.
    pub from: TaskId,
    /// Application-defined tag.
    pub tag: u64,
    /// Application-defined payload (tasks typically PUP their data here).
    pub data: Vec<u8>,
}

/// Which consensus instance a protocol message belongs to (§2.2 rounds span
/// both replicas so buddy checkpoints are comparable; medium/weak recovery
/// checkpoints span only the healthy replica).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// All `2R` active nodes; participant index = `replica · R + rank`.
    Global,
    /// One replica's `R` nodes; participant index = `rank`.
    Replica(u8),
}

/// Everything a node can receive.
#[derive(Debug)]
pub(crate) enum Net {
    /// Application traffic (within the sender's replica). `epoch` is the
    /// sender's rollback epoch: messages from before a state reset must not
    /// leak into the rolled-back execution (and messages from peers that
    /// already resumed must wait until the receiver has reset too).
    App {
        to_task: usize,
        epoch: u64,
        msg: AppMsg,
    },
    /// Checkpoint-consensus protocol traffic.
    Consensus { scope: Scope, msg: ConsensusMsg },
    /// Replica-0 → replica-1 buddy: checkpoint content (or digest) for SDC
    /// comparison.
    Compare {
        iteration: u64,
        detection: Detection,
    },
    /// Replica-1 → replica-0 buddy: comparison verdict.
    CompareResult { iteration: u64, clean: bool },
    /// Recovery: install this checkpoint as the verified state and resume
    /// from it.
    Install { checkpoint: Checkpoint },
    /// Liveness signal to the buddy.
    Heartbeat { from: NodeIndex },
    /// Driver control.
    Ctrl(Ctrl),
}

/// A fault a node applies to itself (scripted injections that trigger on
/// node-local progress, or immediately via `Ctrl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeFault {
    /// §6.1 "no-response" fail-stop.
    Crash,
    /// Flip `bits` random bits of PUP-visible float state, seeded.
    Sdc { seed: u64, bits: u32 },
}

/// Driver → node control messages.
#[derive(Debug)]
pub(crate) enum Ctrl {
    /// Open a checkpoint-consensus round.
    StartRound { scope: Scope, round: u64 },
    /// Abort any in-flight round (a failure interrupted it); engines are
    /// rebuilt ignoring rounds below `floor`.
    AbortRound { floor: u64 },
    /// Discard tentative state and reload the last verified checkpoint;
    /// rebuild engines with `floor`.
    Rollback { floor: u64 },
    /// (Strong recovery) send your verified checkpoint to `to`.
    SendVerifiedTo { to: NodeIndex },
    /// (Spare promotion) become `(replica, rank)`; your buddy is `buddy`.
    AssumeIdentity {
        replica: u8,
        rank: usize,
        buddy: NodeIndex,
        floor: u64,
    },
    /// Your buddy was replaced; watch `buddy` from now on.
    BuddyChanged { buddy: NodeIndex },
    /// The checkpoint round completed on every node: resume execution.
    /// (Tasks stay paused between their local pack and this signal so that
    /// post-checkpoint messages cannot leak into slower nodes' packs.)
    RoundComplete,
    /// Stop stepping tasks (weak-scheme crashed replica waits).
    Park,
    /// Resume stepping; engines rebuilt with `floor`.
    Resume { floor: u64 },
    /// Discard *all* checkpoint state and rebuild tasks from the factory:
    /// a restart from the very beginning (used when a failure lands inside
    /// an in-flight recovery and no consistent checkpoint line survives).
    /// Replies `RolledBack`; also unparks.
    HardRestart { floor: u64 },
    /// §6.1 fail-stop injection: stop responding to anything.
    InjectCrash,
    /// §6.1 SDC injection: flip `bits` random bits of PUP-visible task
    /// state.
    InjectSdc { seed: u64, bits: u32 },
    /// Scripted fault armed against node-local progress: fires when any
    /// task's iteration first reaches `at_iteration`.
    ScheduleFault { at_iteration: u64, fault: NodeFault },
    /// Suppress outgoing heartbeats for `secs` (receiving and computing
    /// continue) — models a slow-but-alive node.
    MuteHeartbeats { secs: f64 },
    /// Driver liveness probe (the backstop failure detector for the case
    /// §6.1's buddy heartbeats cannot cover: both buddies of a pair dying
    /// close together, leaving neither with a live watcher). A running
    /// node answers [`Event::Pong`]; a crashed node never does.
    Ping { token: u64 },
    /// Finish: reply with final state and exit the scheduler loop.
    Shutdown,
    /// (Persistence only) the global round `round` got a clean verdict and
    /// is released: reply [`Event::VerifiedState`] with the checkpoint the
    /// preceding [`Ctrl::RoundComplete`] promoted, so the driver can write
    /// it to the on-disk checkpoint slot while the application runs.
    ReportVerified { round: u64 },
    /// (Resume replay only) stop responding to anything, silently. Same
    /// terminal behavior as `InjectCrash`, but without a `FaultInjected`
    /// report: replayed deaths are history, not new faults, and must not
    /// perturb restored injection counters.
    Halt,
    /// The driver replaced `dead` with a spare. Every node keeps its own
    /// copy of the replica layout, in process as in a node host, and
    /// applies the same substitution; the driver sends this to every node
    /// before the promotion's `Halt`, `Park`, `AssumeIdentity` or
    /// `BuddyChanged`.
    LayoutChanged { dead: NodeIndex },
}

/// Node → driver events.
#[derive(Debug)]
pub(crate) enum Event {
    /// `dead` missed its heartbeats (reported by its buddy).
    BuddyDead {
        reporter: NodeIndex,
        dead: NodeIndex,
    },
    /// This node finished its part of checkpoint round `round`.
    /// `verified` is the comparison verdict where one happened on this node
    /// (replica-1 nodes in global rounds), `None` for ship-only rounds.
    CheckpointDone {
        node: NodeIndex,
        round: u64,
        iteration: u64,
        verified: Option<bool>,
    },
    /// Comparison mismatch: silent data corruption. `diverged` carries the
    /// payload byte ranges the detector localized (the whole payload when
    /// the method cannot do better); `fields_flagged` counts the mismatching
    /// fields found by the windowed field-level re-check (FullCompare only).
    SdcDetected {
        node: NodeIndex,
        iteration: u64,
        diverged: Vec<std::ops::Range<usize>>,
        payload_len: usize,
        fields_flagged: usize,
    },
    /// A fault actually landed on this node (the node reports the exact
    /// job-clock time, which campaign invariants compare against round
    /// verdicts).
    FaultInjected {
        node: NodeIndex,
        at: f64,
        fault: NodeFault,
    },
    /// Rollback finished on this node.
    RolledBack { node: NodeIndex },
    /// Recovery checkpoint installed on this node.
    Installed { node: NodeIndex },
    /// Every task on this node reports done.
    AllTasksDone { node: NodeIndex },
    /// Answer to a [`Ctrl::Ping`] liveness probe.
    Pong { node: NodeIndex, token: u64 },
    /// Final state at shutdown: one packed payload per task.
    FinalState {
        node: NodeIndex,
        identity: Option<(u8, usize)>,
        tasks: Vec<Bytes>,
    },
    /// Answer to [`Ctrl::ReportVerified`]: the packed checkpoint payload this
    /// node promoted for round `round`, captured at `iteration`. The
    /// payload/digest pair is exactly what [`Ctrl`]'s `Install` path accepts,
    /// so a resumed driver can seed nodes with it verbatim.
    VerifiedState {
        node: NodeIndex,
        round: u64,
        iteration: u64,
        digest: u64,
        payload: Bytes,
    },
    /// (TCP transport only) synthesized by the router's stale monitor, not
    /// by any node: `node`'s socket has been detached longer than the
    /// configured stale window. The driver answers with a targeted
    /// [`Ctrl::Ping`] so a dead socket is distinguished from a dead node —
    /// a send into a broken pipe must feed the liveness probe rather than
    /// being silently swallowed.
    TransportStale { node: NodeIndex },
}
